"""Seed derivation, shared helpers and the fork fan-out."""

import errno
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    complex_gaussian_ref,
    derive_seed_ref,
    no_children,
    record_forks,
    recorded_under,
)

import liftconv.util as util
from liftconv.util import (
    ZeroVectorError,
    complex_gaussian,
    cpu_processes,
    derive_seed,
    fan_out,
    fmt_float,
    rng_for,
    rng_streams,
    unit,
    vnorm,
)


def test_derive_seed_is_stable():
    assert derive_seed(7, "trial", 3) == derive_seed(7, "trial", 3)


def test_derive_seed_distinguishes_labels():
    seeds = {
        derive_seed(7),
        derive_seed(7, "trial", 3),
        derive_seed(7, "trial", 4),
        derive_seed(7, "cell", 3),
        derive_seed(8, "trial", 3),
    }
    assert len(seeds) == 5


def test_derive_seed_distinguishes_types():
    # 1, 1.0, True and "1" are different labels on purpose
    seeds = {
        derive_seed(0, 1),
        derive_seed(0, 1.0),
        derive_seed(0, True),
        derive_seed(0, "1"),
        derive_seed(0, None),
    }
    assert len(seeds) == 5


def test_derive_seed_is_order_sensitive():
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


def test_derive_seed_fits_in_63_bits():
    for base in range(50):
        assert 0 <= derive_seed(base, "x") < 2**63


# one part per _canon branch: bool, np.bool_, int, np.integer, float,
# np.floating, None, str (a separator and non-ASCII text inside it)
@pytest.mark.parametrize("parts, seed", [
    ((5, True), 3902380432885902044),
    ((5, np.bool_(False)), 7184340566775843248),
    ((5, 7), 8850401543118418594),
    ((5, np.int64(-7)), 4124240947831922923),
    ((5, -0.0), 6515625467523269082),
    ((5, np.float32(0.1)), 6410141550287008506),
    ((5, None), 4296723449156060027),
    ((5, "trial|7"), 5020151321927423460),
    ((5, "\u00e9"), 6456944691158046983),
    ((5, "trial", 7), 8691566402876873897),
    ((np.int64(5),), 7100898348135710418),
])
def test_derive_seed_keeps_its_recorded_values(parts, seed):
    assert derive_seed(*parts) == seed, recorded_under()
    assert derive_seed_ref(*parts) == seed, recorded_under()


_PARTS = st.one_of(
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(width=32).map(np.float32),
    st.text(st.characters(exclude_categories=("Cs",))),
    st.text(st.sampled_from("|ab7 \u00e9\u4e2d\U0001f600"), max_size=12),
)


@settings(max_examples=500, deadline=None)
@given(base=st.one_of(st.integers(0, 2**64), st.integers(0, 2**63 - 1).map(np.int64)),
       parts=st.lists(_PARTS, max_size=6))
def test_derive_seed_is_the_incremental_hash(base, parts):
    # blake2b of the "|"-joined canonical forms equals the per-part updates
    assert derive_seed(base, *parts) == derive_seed_ref(base, *parts)


def test_rng_for_reproduces_streams():
    a = rng_for(0, "x").standard_normal(5)
    b = rng_for(0, "x").standard_normal(5)
    assert np.array_equal(a, b)


def _same_stream(a, b) -> bool:
    """Equal generator states, then equal choice and standard_normal draws."""
    return (a.bit_generator.state == b.bit_generator.state
            and a.choice(97, 3, replace=False).tolist() == b.choice(97, 3, replace=False).tolist()
            and a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes())


def test_rng_streams_are_the_rng_for_streams():
    # past one 4096-index hashing pass, so two passes are covered
    ts = range(4100)
    got = list(rng_streams(5, "trial", ts))
    assert len(got) == len(ts)
    assert all(_same_stream(g, rng_for(5, "trial", t)) for g, t in zip(got, ts))


@pytest.mark.parametrize("base, label, indices", [
    (0, "draw", [0, 1, 2**40, -3, np.int64(7)]),
    (2**70, ("cell", 3), [True, 1.5, None, "x|y", np.float32(0.1)]),
    (np.int64(9), None, range(1, 200, 7)),
])
def test_rng_streams_take_any_labels_as_rng_for_does(base, label, indices):
    got = list(rng_streams(base, label, indices))
    assert all(_same_stream(g, rng_for(base, label, t)) for g, t in zip(got, indices))
    assert len(got) == len(list(indices))


def test_rng_streams_of_no_index_yield_nothing():
    assert list(rng_streams(5, "trial", [])) == []


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
def test_seed_words_are_the_seed_sequence_state(seed):
    # one entropy word below 2^32, two from 2^32 on
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    got = util._seed_words(np.array([seed, seed], dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (2, 4)
    assert got[0].tobytes() == want.tobytes() and got[1].tobytes() == want.tobytes()


def test_fmt_float_round_trips():
    for x in (0.1, 1 / 3, 2e-300, 123456.789, 0.0, -1.5e10):
        assert float(fmt_float(x)) == x


def test_unit_normalizes():
    x = np.array([3.0, 4.0])
    assert np.linalg.norm(unit(x)) == pytest.approx(1.0, abs=1e-15)


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        unit(np.zeros(3))


def test_zero_vector_guard_is_a_value_error_of_its_own():
    assert issubclass(ZeroVectorError, ValueError)
    with pytest.raises(ZeroVectorError, match="zero vector"):
        unit(np.zeros(3))


def test_complex_gaussian_moments():
    z = complex_gaussian(rng_for(0, "cg"), 200_000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(np.mean(z)) < 0.02
    # real and imaginary parts carry half the energy each
    assert abs(np.mean(z.real**2) - 0.5) < 0.02


def _same_float(a, b) -> bool:
    return float(a).hex() == float(b).hex()


# finite doubles up to the largest, so squares and sums can overflow to inf
_ENTRIES = st.floats(allow_nan=False, allow_infinity=False, width=64)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(re=hnp.arrays(np.float64, st.integers(0, 40), elements=_ENTRIES),
       im_seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-160, 1e150, 1e300]),
       step=st.sampled_from([1, 2, 3, -1, -2]),
       kind=st.sampled_from(["real", "complex", "real part"]))
def test_vnorm_is_np_linalg_norm_bit_for_bit(re, im_seed, scale, step, kind):
    im = np.random.default_rng(im_seed).standard_normal(re.size) * scale
    if kind == "real":
        x = re
    else:
        x = re + 1j * im
        if kind == "real part":
            x = x.real  # a strided view into the complex buffer
    view = x[::step]
    assert _same_float(vnorm(view), np.linalg.norm(view))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("x", [
    np.zeros(5), np.zeros(7, dtype=complex), np.zeros(0), np.zeros(0, dtype=complex),
    np.full(4, 1e154), np.full(4, 1e308), np.full(3, 1e308 + 1e308j),
    np.array([1.7976931348623157e308, -1.7976931348623157e308]),
    np.full(6, 5e-324 + 5e-324j),
])
def test_vnorm_at_zero_and_near_overflow(x):
    assert _same_float(vnorm(x), np.linalg.norm(x))
    assert _same_float(vnorm(x[::2]), np.linalg.norm(x[::2]))


@pytest.mark.parametrize("size", [1, 7, np.int64(5), (3, 4), (2, 3, 5), [4, 2]])
def test_complex_gaussian_is_the_two_call_draw(size):
    ref_rng, rng = rng_for(0, "cg-ref", str(size)), rng_for(0, "cg-ref", str(size))
    ref = (ref_rng.standard_normal(size) + 1j * ref_rng.standard_normal(size)) / np.sqrt(2.0)
    got = complex_gaussian(rng, size)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
    # and the stream is left where the two calls left it
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("size", [*range(1, 17), *((n, n) for n in (1, 2, 16, 64, 128, 256))])
def test_complex_gaussian_is_the_complex_division_bit_for_bit(size):
    for seed in range(40):
        got = complex_gaussian(rng_for(seed, "cg-bits"), size)
        ref = complex_gaussian_ref(rng_for(seed, "cg-bits"), size)
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


# -- fan-out --------------------------------------------------------------------


def _slow_square(x):
    time.sleep(0.002)
    if x == 13:
        raise KeyError(x)
    return x * x, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3, 64])
def test_fan_out_yields_in_item_order_and_raises_where_the_loop_would(workers):
    got = [x for x, _ in fan_out(_slow_square, range(13), workers)]
    assert got == [x * x for x in range(13)]
    seen = []
    with pytest.raises(KeyError):
        for x, _ in fan_out(_slow_square, range(30), workers):
            seen.append(x)
    assert seen == [x * x for x in range(13)]
    assert no_children()


def test_fan_out_shares_the_items_between_the_caller_and_its_siblings():
    pids = set(fan_out(lambda _: (time.sleep(0.02), os.getpid())[1], range(12), 2))
    assert os.getpid() in pids and len(pids) == 2
    assert no_children()


def test_fan_out_runs_in_process_without_fork_or_inside_a_fan_out(monkeypatch):
    caller = os.getpid()
    nested = list(fan_out(lambda _: {pid for _, pid in fan_out(_slow_square, range(4), 2)},
                          range(2), 2))
    assert [len(pids) for pids in nested] == [1, 1]
    monkeypatch.delattr(os, "fork")
    assert {pid for _, pid in fan_out(_slow_square, range(4), 2)} == {caller}


def test_closing_a_fan_out_kills_its_siblings_at_once():
    caller = os.getpid()

    def hang_in_siblings(x):
        if x > 0 and os.getpid() != caller:
            time.sleep(60)
        return x

    start = time.perf_counter()
    for x in fan_out(hang_in_siblings, range(6), 3):
        if x == 0:
            break
    assert time.perf_counter() - start < 10
    assert no_children()


def test_a_sibling_lost_without_a_result_raises_and_names_it():
    caller = os.getpid()

    def die_in_siblings(x):
        if os.getpid() != caller:
            os._exit(5)
        time.sleep(0.05)
        return x

    with pytest.raises(ChildProcessError, match=r"worker process \d+ ended \(exit status 5\)"):
        list(fan_out(die_in_siblings, range(8), 2))
    assert no_children()


@pytest.mark.parametrize("items, workers, forks", [
    (2, 64, 1),  # at most one process per item
    (1, 64, 0),  # a fan-out of one runs nothing in parallel
    (3, 4, 2),
])
def test_fan_out_forks_at_most_one_sibling_per_item_beyond_the_first(monkeypatch, items,
                                                                      workers, forks):
    forked = record_forks(monkeypatch)
    assert [x for x, _ in fan_out(_slow_square, range(items), workers)] == [
        x * x for x in range(items)]
    assert len(forked) == forks


@pytest.mark.parametrize("cpus, env, processes", [
    (4, {"OPENBLAS_NUM_THREADS": "1"}, 4),
    (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),  # one process per CPU its BLAS threads leave
    (3, {"OPENBLAS_NUM_THREADS": "2"}, 1),  # one process: the items run in process
    (4, {}, 4),  # fan_out gives each of CPUs // workers processes one thread
    (4, {"OMP_NUM_THREADS": "2"}, 2),
])
def test_cpu_processes_divide_the_usable_cpus_by_one_process_blas_threads(
        monkeypatch, cpus, env, processes):
    for var in util._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert cpu_processes() == processes
    # a solve's 14 restarts fan out on that many processes, forking the others
    forked = record_forks(monkeypatch)
    restarts = range(14, 28)
    assert [x for x, _ in fan_out(_slow_square, restarts, cpu_processes())] == [
        x * x for x in restarts]
    assert len(forked) == max(processes - 1, 0)


def _fork_fails_on_call(monkeypatch, failing: int) -> list:
    """Makes os.fork raise EAGAIN, as when out of process ids, on its
    call number failing; returns the list of its calls in this process."""
    calls, real = [], os.fork

    def fork():
        calls.append(os.getpid())
        if len(calls) == failing:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.parametrize("workers, failing", [(3, 2), (2, 1)])
def test_a_failed_fork_warns_once_and_the_running_processes_compute_every_item(
        monkeypatch, caplog, workers, failing):
    # a failed fork raised BlockingIOError out of the fan-out
    calls = _fork_fails_on_call(monkeypatch, failing)
    with caplog.at_level("WARNING", logger="liftconv"):
        got = [x for x, _ in fan_out(_slow_square, range(12), workers)]
    assert got == [x * x for x in range(12)]
    assert len(calls) == failing
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert os.strerror(errno.EAGAIN) in warnings[0]
    assert f"runs on {failing} of {workers} processes" in warnings[0]
    assert no_children()


def _big(k):
    return complex_gaussian(rng_for(k, "big"), 300_000)


@pytest.mark.parametrize("workers", [2, 3])
def test_results_far_beyond_a_pipe_buffer_come_back_whole_and_in_order(workers):
    # 4.8 MB a result, where a pipe buffers 64 KB
    caller = os.getpid()

    def big_result(k):
        if os.getpid() == caller:
            time.sleep(0.05)  # leaves items for the siblings to claim
        return _big(k), os.getpid()

    got = list(fan_out(big_result, range(6), workers))
    assert [x.tobytes() for x, _ in got] == [_big(k).tobytes() for k in range(6)]
    assert len({pid for _, pid in got}) > 1
    assert no_children()


class _UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def _raise_unpicklable(x):
    raise _UnpicklableError(x)


@pytest.mark.parametrize("in_sibling", [lambda x: (lambda: x), _raise_unpicklable],
                         ids=["result", "exception"])
def test_a_sibling_whose_outcome_does_not_pickle_is_named(in_sibling):
    caller = os.getpid()

    def fn(x):
        if os.getpid() != caller:
            return in_sibling(x)
        time.sleep(0.05)
        return x

    with pytest.raises(ChildProcessError, match=r"worker process \d+ ended \(exit status 1\) "
                                                r"without sending its results"):
        list(fan_out(fn, range(8), 2))
    assert no_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_no_file_descriptor_outlives_a_fan_out(monkeypatch):
    # a raw pipe end raises no ResourceWarning, so dev mode cannot see this leak
    caller = os.getpid()

    def die_in_siblings(x):
        if os.getpid() != caller:
            os._exit(5)
        time.sleep(0.05)
        return x

    def open_fds():
        return sorted(os.listdir("/proc/self/fd"))

    before = open_fds()
    assert [x for x, _ in fan_out(_slow_square, range(12), 3)] == [x * x for x in range(12)]
    assert open_fds() == before
    for x, _ in fan_out(_slow_square, range(12), 3):
        break
    assert open_fds() == before
    with pytest.raises(KeyError):
        list(fan_out(_slow_square, range(30), 3))
    assert open_fds() == before
    with pytest.raises(ChildProcessError):
        list(fan_out(die_in_siblings, range(8), 2))
    assert open_fds() == before
    _fork_fails_on_call(monkeypatch, 2)
    assert [x for x, _ in fan_out(_slow_square, range(12), 3)] == [x * x for x in range(12)]
    assert open_fds() == before
    assert no_children()


@pytest.mark.parametrize("env, threads", [
    ({}, 8),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "4,2"}, 8),  # a list: no single count
])
def test_blas_threads_are_read_as_openblas_reads_them(monkeypatch, env, threads):
    for var in util._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert util._blas_threads(1) == threads
    # without a count from the environment, workers share the CPUs
    assert util._blas_threads(3) == (threads if util._env_blas_threads() else 2)
    assert util._blas_threads(16) == (threads if util._env_blas_threads() else 1)


@pytest.mark.skipif(util._openblas() is None, reason="no scipy-openblas thread control")
def test_fan_out_shares_the_cpus_between_its_blas_pools_and_restores_the_caller(monkeypatch):
    for var in util._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    get, set_ = util._openblas()
    before = get()
    try:
        set_(4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        inside = list(fan_out(lambda _: (time.sleep(0.03), get(), os.getpid())[1:],
                              range(8), 2))
        assert {threads for threads, _ in inside} == {1}  # 3 CPUs // 2 processes
        assert len({pid for _, pid in inside}) == 2
        assert get() == 4
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")  # the environment's count stays
        assert {t for t in fan_out(lambda _: get(), range(4), 2)} == {4}
    finally:
        set_(before)


def test_fan_out_without_blas_thread_control_logs_once_and_runs(monkeypatch, caplog):
    for var in util._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)

    def no_library(path):
        raise OSError("not found")

    monkeypatch.setattr(util.ctypes, "CDLL", no_library)
    util._openblas.cache_clear()
    try:
        with caplog.at_level("INFO", logger="liftconv"):
            for _ in range(2):
                assert [x for x, _ in fan_out(_slow_square, range(4), 2)] == [0, 1, 4, 9]
    finally:
        util._openblas.cache_clear()
    assert len([r for r in caplog.records if "thread control" in r.getMessage()]) == 1
