"""Seed derivation and small shared utilities.

Reproducibility contract: every randomized routine consumes a generator
derived from an integer seed plus a tuple of labels (trial index, grid
cell coordinates, dictionary role). Derivation goes through a fixed
64-bit hash so results do not depend on execution order, worker count,
or grid ordering.

rng_for defines one stream. rng_streams, its batch form for one stream
per index (trials, isotropy draws), yields the same generators: it hashes
the indices' seed-sequence states in one vectorized pass (_seed_words) and
seeds each PCG64 with its words through NumPy's ISeedSequence hook (NEP 19
keeps both bit stable), about 3 us a stream at 200 indices against 14 us.

The per-trial and per-half-step paths take vector norms with vnorm,
which evaluates what np.linalg.norm does for a vector, in the same
order, without its Python-level argument handling: a Monte Carlo trial
or a solver half-step takes several norms of short vectors, and that
handling cost more than the arithmetic. Axis norms of matrices keep
np.linalg.norm.

The draw paths (complex_gaussian here, measurement._gaussian_dictionaries,
models.sample_model) scale by a real constant c without complex
arithmetic: they multiply the float64 parts by 1.0 / c, in place
(through the real view, x.view(np.float64), for a complex array, or
on the normals before they are packed), and complex_gaussian and
_gaussian_dictionaries pack their two halves of normals into the real
and imaginary parts of an empty complex array instead of forming
z[0] + 1j * z[1]. This is bit for bit the complex form, because NumPy
divides a complex array by a real c by Smith's formula with a zero
imaginary part, which multiplies each part by 1.0 / c; so the constant
must be exactly 1.0 / sqrt(c) (math.sqrt(0.5) differs from
1.0 / math.sqrt(2.0) in the last bit). The one difference is the sign
of an entry whose normal draw is exactly zero, which has probability
about 2^-52 per entry. unit() keeps the division: its inputs may hold a computed -0.0,
whose sign the division and the multiplication can give differently.

fan_out is the one place the package starts processes: it runs a
function over a list of items on the calling process and on siblings
forked from it, and yields the results in item order (see its
docstring). The process count has one rule, here: a caller that wants
the CPUs asks for cpu_processes(), the usable CPUs divided by one
process's OpenBLAS threads, and fan_out runs at most one process per
item and forks nothing below two. While it runs, it gives each of its
processes an equal share of the usable CPUs for NumPy's bundled
OpenBLAS, unless the environment sets the thread count. A pipe or fork
that fails (out of process ids, memory or descriptors) stops the forking
with one warning; the processes running compute every item, the caller
on the share for their number.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import math
import os
import pickle
import struct
import tempfile

import numpy as np

__all__ = ["ZeroVectorError", "derive_seed", "rng_for"]


class ZeroVectorError(ValueError):
    """A computation met the zero vector where it needs a nonzero one.

    Raised by the zero-vector guards (normalization, flatness,
    initialization from the data, the error metric), which fire on
    degenerate draws or iterates in the middle of a run, and by
    solver.recover when a factor collapsed to zero in every attempt; the
    command line reports it as a numeric failure (exit 3), not as bad
    input.
    """


def _canon(part) -> str:
    if isinstance(part, (bool, np.bool_)):
        return "b%d" % int(part)
    if isinstance(part, (int, np.integer)):
        return "i%d" % int(part)
    if isinstance(part, (float, np.floating)):
        return "f" + format(float(part), ".17g")
    if part is None:
        return "none"
    return "s" + str(part)


def derive_seed(base: int, *parts) -> int:
    """Mix a base seed with labels into a stable 63-bit seed: the 8-byte
    blake2b digest of the canonical forms joined by "|", as little-endian
    bits, shifted right by one."""
    key = _canon(base)
    for part in parts:
        key += "|" + _canon(part)
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little") >> 1


def rng_for(base: int, *parts) -> np.random.Generator:
    """Generator seeded by derive_seed(base, *parts)."""
    return np.random.default_rng(derive_seed(base, *parts))


# NumPy's SeedSequence hash, constants copied from bit_generator.pyx. Step k
# xors a word with constant k, multiplies it by constant k + 1, xorshifts it.
# mix_entropy hashes the 4 pool words (INIT_A, MULT_A), then in round r hashes
# word r into each other one (MIX_MULT_L, _R); generate_state hashes the pool twice.
def _consts(init: int, mult: int, steps: int) -> np.ndarray:
    return np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(steps + 1)],
                    dtype=np.uint32)[:, None]


_HASH_A, _HASH_B = _consts(0x43B0D7E5, 0x931E8875, 16), _consts(0x8B51F9DD, 0x58F38DED, 8)
# round r's (xor, multiply) constants: its 3 steps' on the other rows, (0, 1) on row r
_ROUND_XOR, _ROUND_MUL = (np.stack([np.insert(_HASH_A[k + 3 * r:k + 3 * r + 3], r, pad, axis=0)
                                    for r in range(4)]) for k, pad in ((4, 0), (5, 1)))


def _hashmix(x: np.ndarray, xor, mul) -> np.ndarray:
    x = (x ^ xor) * mul
    x ^= x >> 16
    return x


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each seed of a
    uint64 array, as its rows. A seed below 2^32 is one entropy word, and
    the pool hashes 0 for a missing word, so [low, high, 0, 0] serves all."""
    pool = np.array([seeds & 0xFFFFFFFF, seeds >> 32, 0 * seeds, 0 * seeds], dtype=np.uint32)
    pool = _hashmix(pool, _HASH_A[:4], _HASH_A[1:5])
    for r in range(4):
        keep = pool[r].copy()
        h = _hashmix(pool[r], _ROUND_XOR[r], _ROUND_MUL[r]) * np.uint32(0x4973F715)
        pool = pool * np.uint32(0xCA01F9DD) - h
        pool ^= pool >> 16
        pool[r] = keep
    state = _hashmix(np.concatenate((pool, pool)), _HASH_B[:8], _HASH_B[1:9])
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _given_seed_state():
    # made on first use, so that importing the package loads no numpy.random
    class GivenSeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for (4, np.uint64) only

    return GivenSeedState


def rng_streams(base: int, label, indices):
    """Yield rng_for(base, label, t) for each t in indices, the same
    generators, hashing up to 4096 indices' seeds together at a time.
    Their seed_seq holds only the words, so they neither pickle nor spawn."""
    prefix = _canon(base) + "|" + _canon(label) + "|"
    indices = iter(indices)
    while keys := [prefix + _canon(t) for _, t in zip(range(4096), indices)]:
        digests = b"".join(hashlib.blake2b(key.encode(), digest_size=8).digest() for key in keys)
        for words in _seed_words(np.frombuffer(digests, dtype="<u8") >> 1):
            yield np.random.Generator(np.random.PCG64(_given_seed_state()(words)))


def fmt_float(x) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))


def vnorm(x: np.ndarray) -> float:
    """Euclidean norm of a float or complex array, bit for bit np.linalg.norm(x).

    The same evaluation as np.linalg.norm with ord=None and no axis:
    ravel(order="K"), re.re + im.im by dot products, then a correctly
    rounded square root. For real input im is zeros and adding +0.0 is
    exact, so this is np.linalg.norm's x.x bit for bit, inf and NaN
    included. Takes an ndarray of a floating or complex dtype, as the
    library's vectors are.
    """
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def unit(x: np.ndarray) -> np.ndarray:
    """x scaled to unit Euclidean norm."""
    nrm = vnorm(x)
    if nrm == 0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return x / nrm


# 1.0 / sqrt(2) exactly, not math.sqrt(0.5) (see the module docstring)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def complex_gaussian(rng: np.random.Generator, size) -> np.ndarray:
    """i.i.d. circularly symmetric complex normal entries, unit variance,
    as a C-contiguous complex128 array of shape size.

    Real and imaginary parts are independent N(0, 1/2), so E|z|^2 = 1.
    One standard_normal call of shape (2, *size) fills its output in
    order, so the real parts are the first half of the stream and the
    imaginary parts the second, as two calls of shape size would give.
    The normals are scaled in place by 1 / sqrt(2) and packed into the
    real and imaginary parts of the result, which gives the bits of
    (z[0] + 1j * z[1]) / np.sqrt(2.0) (see the module docstring).
    """
    shape = (size,) if isinstance(size, (int, np.integer)) else size
    z = rng.standard_normal((2, *shape))
    z *= _INV_SQRT2
    out = np.empty(shape, dtype=np.complex128)
    out.real = z[0]
    out.imag = z[1]
    return out


# -- fan-out --------------------------------------------------------------------

log = logging.getLogger("liftconv")

# The environment variables NumPy's bundled OpenBLAS reads its thread
# count from, first match first.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# True in a process that is inside a fan-out: the caller while the
# fan-out is open, and every sibling. Such a process runs a nested
# fan-out's items itself, so fan-outs never nest.
_inside = False


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _env_blas_threads() -> int | None:
    """The thread count the environment sets for NumPy's bundled OpenBLAS,
    read as it reads it: the first of _THREAD_VARS that holds a positive
    integer, else None."""
    for var in _THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def cpu_processes() -> int:
    """The processes a fan-out that wants the CPUs asks for: the usable
    CPUs divided by the OpenBLAS threads of one process, which are the
    environment's count, else the one thread fan_out then gives each.
    The division keeps a fan-out from oversubscribing the CPUs: two
    processes that each ran a two-thread BLAS on two CPUs took a slice
    m = 16 solve 5 to 9 times longer than one process. Below two,
    fan_out forks nothing."""
    return _usable_cpus() // (_env_blas_threads() or 1)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of NumPy's bundled OpenBLAS, or
    None, logged once, where it exports no scipy_openblas_*_num_threads64_."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        log.info("no scipy-openblas thread control found; fanned-out processes "
                 "keep NumPy's default BLAS threads")
        return None


def _blas_share(processes: int) -> int | None:
    """Give this process, and the siblings it forks after, max(1, usable
    CPUs // processes) OpenBLAS threads, and return the count it replaced;
    None, setting nothing, when the environment sets the count or the
    library offers no control."""
    api = None if _env_blas_threads() is not None else _openblas()
    if api is None:
        return None
    get, set_ = api
    before = get()
    set_(max(1, _usable_cpus() // processes))
    return before


def _send(fd: int, data: bytes):
    view = memoryview(struct.pack("<Q", len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int) -> bytes | None:
    """One frame from fd (b"" is the end marker), or None at end of file."""
    header = _read_exact(fd, 8)
    if len(header) < 8:
        return None
    size, = struct.unpack("<Q", header)
    body = _read_exact(fd, size)
    return body if len(body) == size else None


def _read_exact(fd: int, n: int) -> bytes:
    chunks, left = [], n
    while left:
        chunk = os.read(fd, left)
        if not chunk:
            break
        chunks.append(chunk)
        left -= len(chunk)
    return b"".join(chunks)


def _sibling(fn, items: list, claim, fd: int, inherited: tuple):
    """A forked sibling's whole life: close the inherited pipe ends, then
    claim, compute and send back items until none is left, then the end
    marker. It leaves through os._exit, so none of the caller's exit
    hooks, buffers or enclosing finally blocks runs in it."""
    code = 1
    try:
        for other in inherited:
            os.close(other)
        while (k := claim()) < len(items):
            try:
                msg = (k, True, fn(items[k]))
            except Exception as exc:
                msg = (k, False, exc)
            _send(fd, pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))
        _send(fd, b"")
        code = 0
    finally:
        os._exit(code)


def _lost(pid: int) -> ChildProcessError:
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
    return ChildProcessError(f"worker process {pid} ended ({how}) without sending its results")


def fan_out(fn, items, workers: int):
    """Yield fn(item) for each item, in item order, computed on up to
    `workers` processes: this one and siblings forked from it, at most
    one process per item (cpu_processes() is the count that uses the CPUs).

    The caller and its workers - 1 siblings each claim the next
    unclaimed item (a counter under a file lock) and compute it; the
    siblings send back each result, or the exception fn raised, pickled.
    Results and exceptions come out in item order, as a serial loop over
    the items gives them, each as soon as it and every earlier one are
    in. Items run in this process, one after the other, when workers < 2,
    when the platform has no os.fork, or when this process is inside a
    fan-out (a sibling, or a caller computing an item), so fan-outs
    never nest. Closing the generator (after the last item, on break or
    on an exception) kills and reaps every sibling at once, so none
    outlives it and no discarded item runs on. A sibling that ends
    without sending its results (killed, out of memory, os._exit inside
    fn) raises ChildProcessError naming it, once the others are reaped;
    so does one whose result or exception does not pickle. fn and the
    items reach the siblings by fork, so neither needs to pickle. When
    os.pipe or os.fork fails (out of process ids, memory or
    descriptors), the fan-out forks no more, logs one warning naming the
    error and the processes it runs on, and those compute every item;
    this process takes the OpenBLAS share for their number (siblings
    already forked keep the smaller one planned for `workers`). No
    result depends on the process count.
    """
    global _inside
    items = list(items)
    n = len(items)
    workers = min(workers, n)
    if workers < 2 or _inside or not hasattr(os, "fork"):
        for item in items:
            yield fn(item)
        return
    import fcntl  # POSIX only, as os.fork is; these load on the first fan-out
    import select
    import signal

    counter = tempfile.TemporaryFile()
    lock = counter.fileno()

    def claim() -> int:
        fcntl.lockf(lock, fcntl.LOCK_EX)
        try:
            k = int.from_bytes(os.pread(lock, 8, 0), "little")
            os.pwrite(lock, (k + 1).to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(lock, fcntl.LOCK_UN)
        return k

    pids = {}  # read end of a sibling's result pipe -> its pid, until reaped
    live = set()  # read ends whose end marker has not come
    done = {}  # item index -> (ok, result or exception)

    def receive(timeout):
        # take in every frame waiting, after up to timeout seconds (None: forever)
        for fd in select.select(list(live), [], [], timeout)[0]:
            data = _recv(fd)
            if data is None:
                live.discard(fd)
                os.close(fd)
                raise _lost(pids.pop(fd))
            if data:
                k, ok, value = pickle.loads(data)
                done[k] = ok, value
            else:
                live.discard(fd)

    before = _blas_share(workers)
    _inside = True
    try:
        for _ in range(workers - 1):
            fds = ()
            try:
                fds = r, w = os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in fds:
                    os.close(fd)
                log.warning("could not start a worker process (%s); the fan-out runs on "
                            "%d of %d processes", exc, len(pids) + 1, workers)
                _blas_share(len(pids) + 1)
                break
            if pid == 0:
                _sibling(fn, items, claim, w, (r, *pids))
            os.close(w)
            pids[r] = pid
            live.add(r)
        spare = True  # items may be left to claim
        for k in range(n):
            while k not in done:
                receive(0)
                if k in done:
                    break
                j = claim() if spare else n
                spare = j < n
                if not spare:
                    receive(None)
                    continue
                try:
                    done[j] = True, fn(items[j])
                except Exception as exc:
                    done[j] = False, exc
            ok, value = done.pop(k)
            if not ok:
                raise value
            yield value
    finally:
        _inside = False
        if before is not None:
            _openblas()[1](before)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        for fd, pid in pids.items():
            os.waitpid(pid, 0)
            os.close(fd)
        counter.close()
