"""Sparse rank-one recovery by alternating least squares.

Screened initialization, the leading singular pair of the data's adjoint
image T restricted to its highest-energy rows and columns, then
alternating half-steps in the style of hard thresholding pursuit: with
one factor frozen, the other is hard thresholded from a gradient step
and refit exactly by least squares on the selected support. Because the
half-step problems are underdetermined whenever m < n, a plain
solve-then-threshold alternation stalls at interpolating fixed points;
the support-restricted refits remove that failure mode. A refit on at
most m columns solves the small normal equations of its m x |J| block
when that block is well conditioned, as every block of the Gaussian
C10 instances is; a wider support (|J| > m, as in the s >= n exact
path) or a rank-deficient block (repeated omega positions, a sparse
factor over an identity dictionary) keeps the minimum-norm
np.linalg.lstsq solution. On an exactly singular block LAPACK's Gram
inverse is NaN and raises the invalid flag, which recover silences once
per solve.

Every solve measures with one measurement.FactoredOperator: its
frozen-factor map is the m x n matrix sqrt(n/m) F^-1[omega, :]
diag(F Psi v) (F Phi) (swap Phi and Psi to free the right factor), kept
in factored form, and its adjoint image of the data is built densely,
at every n: each solve holds 3 n^2 + m n complex entries.

Two further devices widen the basin of attraction. Sparsity
continuation starts each attempt at a relaxed level (capped by m/3) and
halves it down to the requested one. A relaxed level is only a warm
start: the next level rethresholds to a smaller support and refits from
scratch, so it stops once consecutive iterates are within _WARM_TOL of
each other. The final level iterates to _OUTER_TOL only while its
residual is at most _POLISH_RESID * ||b||; a failed basin, whose
residual stays above that, stops at _WARM_TOL too, since no polishing
makes it win. The step between iterates is measured from the factor
differences (_step_norm), which keeps its digits at small steps. And
the attempt is restarted from a reseeded support screening whenever the
final residual stays large, which is how failed basins announce
themselves.
Restarts draw from a stream derived from SolveOptions.seed, so a solve
is a deterministic function of (ensemble, data, options);
SolveResult.attempt_log records what each attempt did.

Attempts are independent given the operator, T, the options and the
attempt's index, and one function (_attempt) runs each. Attempt 0 runs
in process. When it does not meet the residual stop, the restarts run
in process too, unless _pool_workers sizes a fork-context process pool
for them: their estimated serial time (attempt 0's wall time times
their number) must reach _FAN_OUT_S, the caller must not itself be a
multiprocessing child (a sweep's pool worker), and the usable CPUs
divided by the BLAS threads of a process must give two workers or more.
recover takes the results in attempt order through the same keep and
stop rule either way, so no output depends on the schedule, and no
pool worker outlives the call.

A flatness cap bounds the spectral flatness of a coefficient vector u,
not of its image Phi u. When it binds (mu < s), recover moves the kept
factor inside the cap on its support (models.project_flat) and refits
the other factor; otherwise it does no flatness work.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from numpy.linalg import _umath_linalg

from .measurement import Ensemble, FactoredOperator, LiftedPoint, forward, lifted_dist
from .models import ZERO_TOL, ModelSpec, hard_threshold, project_flat, sample_model
from .util import ZeroVectorError, complex_gaussian, derive_seed, rng_for, unit, vnorm

__all__ = [
    "AttemptRecord",
    "SolveOptions",
    "SolveResult",
    "SolverBreakdownError",
    "recover",
    "success_metric",
    "plant_instance",
]


# A later attempt replaces the kept one only if its residual is smaller
# by more than this relative margin, so that attempts reaching the same
# residual up to rounding (noisy data) keep the earliest.
_ATTEMPT_MARGIN = 1e-9

# A refit solves the normal equations only while the squared Frobenius
# condition number of its block, at least cond(C)^2, stays below this:
# squaring the conditioning then costs at most about 6 of 16 digits.
_GRAM_COND_MAX = 1e6

# A solve stops restarting once an attempt's residual is at most this
# fraction of ||b||.
_RESID_STOP = 1e-7

# The final level polishes until the step is below _OUTER_TOL * ||X||.
_OUTER_TOL = 1e-8

# Every continuation level but the last stops once the step between
# consecutive iterates is below _WARM_TOL * ||X||: the next level
# rethresholds and refits, discarding the digits beyond this. So does
# the final level of a failed basin (_POLISH_RESID).
_WARM_TOL = 1e-4

# The final level polishes to _OUTER_TOL only while the residual is at
# most this fraction of ||b||. Failed basins sit far above it and stop
# at the warm tolerance instead: on 30 C10 instances (n=128, s=3, mu=3,
# m from 16 to 64), after 8 final-level half-steps, failing attempts
# are at 0.31 ||b|| or more and successful ones at 1.3e-2 ||b|| or less.
_POLISH_RESID = 0.1

# Restarts move to a process pool only when attempt 0's wall time times
# their number, the restarts' estimated serial time, is at least this
# many seconds. On a 2-core x86-64 host with BLAS pinned to one thread,
# a two-worker fork pool took the restarts' time halved plus 25 to 35 ms
# (its start-up alone about 11 ms), so it breaks even at 50 to 70 ms:
# n = 16 solves (14 restarts in about 35 ms) ran 1.9 times slower
# fanned out, n = 32 (45 ms) as fast, and the n = 128 slice's failing
# solves (55 to 270 ms) about 1.3 times faster.
_FAN_OUT_S = 0.06


class SolverBreakdownError(RuntimeError):
    """Inner solver broke down; carries the current iterate pair."""

    def __init__(self, message: str, iterate: LiftedPoint):
        super().__init__(message)
        self.iterate = iterate

    def __reduce__(self):
        return type(self), (*self.args, self.iterate)


@dataclass
class SolveOptions:
    """Solver settings. max_outer_iters caps the outer iterations of
    each continuation level, whose step tolerances are the constants
    _OUTER_TOL and _WARM_TOL (_run_attempt); restarts counts the attempts
    after the first. A flatness cap mu1 (mu2), from 1 to n, bounds the
    flatness of the left (right) coefficient vector; when the cap binds
    (mu < s), recover moves that factor inside the cap on its support."""

    s1: int
    s2: int
    max_outer_iters: int = 40
    restarts: int = 14
    seed: int = 0
    mu1: float | None = None
    mu2: float | None = None

    def __post_init__(self):
        if self.s1 < 1 or self.s2 < 1:
            raise ValueError("sparsity levels must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("iteration caps must be positive")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")
        if any(mu is not None and not mu >= 1 for mu in (self.mu1, self.mu2)):
            raise ValueError("flatness caps must be at least 1")


@dataclass
class AttemptRecord:
    """What one attempt of recover did, as kept in SolveResult.attempt_log;
    _run_attempt fills it as it runs, so a breakdown keeps the work done."""

    init: str  # "screened", "weighted", "uniform" or "gaussian"
    level_iters: list = field(default_factory=list)  # outer iterations per level reached
    level_stops: list = field(default_factory=list)  # "outer_tol", "warm" or "cap"
    half_steps: int = 0
    resid_rel: float | None = None  # final residual / ||b||; None after a breakdown
    stop: str = "breakdown"         # "resid_stop", "done" or "breakdown"


@dataclass
class SolveResult:
    """The kept attempt's estimate. iterations counts its outer
    iterations over all levels; converged tells whether its final level
    stopped on its step test rather than at max_outer_iters."""

    u_hat: np.ndarray
    v_hat: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    attempt_log: list = field(default_factory=list)

    @property
    def point(self) -> LiftedPoint:
        return LiftedPoint(self.u_hat, self.v_hat)

    @property
    def attempts(self) -> int:
        return len(self.attempt_log)


# -- initialization -----------------------------------------------------------


def _leading_pair_dense(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    U, S, Vh = np.linalg.svd(T)
    scale = np.sqrt(S[0])
    return scale * U[:, 0], scale * Vh[0, :]


def _attempt_init(T: np.ndarray, energies: tuple, k1: int, k2: int,
                  attempt: int, seed: int) -> tuple[str, LiftedPoint]:
    """An attempt's flavor and starting pair, from the adjoint image T.

    Attempt 0 screens T to its k1 highest-energy rows and k2 columns;
    later attempts cycle energy-weighted screening (rows and columns
    drawn with energy-proportional probabilities), uniform screening,
    and dense random pairs, so repeated restarts explore genuinely
    different basins even when the adjoint image misranks the true
    support. A screened pair is the leading singular pair of the
    selected k1 x k2 block, zero elsewhere; a block whose entries are all
    at most ZERO_TOL times the largest modulus of T, zero up to the
    rounding residue the operator's FFTs leave where T is structurally
    zero, falls back to the thresholded leading pair of T. energies holds
    the squared row and column norms of T, which recover computes once.
    """
    n = T.shape[0]
    row_e, col_e = energies
    if attempt == 0:
        flavor = "screened"
        rows = np.argsort(-row_e)[:k1]
        cols = np.argsort(-col_e)[:k2]
    else:
        flavor = ("weighted", "uniform", "gaussian")[(attempt - 1) % 3]
        rng = rng_for(seed, "restart", attempt)
        if flavor == "gaussian":
            return flavor, LiftedPoint(unit(complex_gaussian(rng, n)),
                                       unit(complex_gaussian(rng, n)))
        weighted = flavor == "weighted"
        rows = rng.choice(n, size=k1, replace=False, p=row_e / row_e.sum() if weighted else None)
        cols = rng.choice(n, size=k2, replace=False, p=col_e / col_e.sum() if weighted else None)
    block = T[np.ix_(rows, cols)]
    if np.abs(block).max() <= ZERO_TOL * np.abs(T).max():
        u0, v0 = _leading_pair_dense(T)
        return flavor, LiftedPoint(unit(hard_threshold(u0, k1)), unit(hard_threshold(v0, k2)))
    U, _, Vh = np.linalg.svd(block)
    u = np.zeros(n, dtype=complex)
    v = np.zeros(n, dtype=complex)
    u[rows] = U[:, 0]
    v[cols] = Vh[0, :]
    return flavor, LiftedPoint(unit(u), unit(v))


# -- half steps ---------------------------------------------------------------


def _adjoint(WH: np.ndarray, G: np.ndarray, r: np.ndarray) -> np.ndarray:
    """G^H (WH^H r), evaluated as conj((conj(r) @ WH) @ G) without copying."""
    return ((r.conj() @ WH) @ G).conj()


def _gram_solve(cols: np.ndarray, b: np.ndarray):
    """Solution of the normal equations (C^H C) x = C^H b, or None.

    None unless cond_F(C)^2 = ||C||_F^2 |tr((C^H C)^-1)|, which lies
    between cond(C)^2 and |J|^2 cond(C)^2, is below _GRAM_COND_MAX. The
    inverse is np.linalg.inv's LAPACK gufunc without its wrapper: an
    exactly singular Gram matrix comes back NaN, with the floating-point
    invalid flag raised, and fails the test; a numerically singular one
    gives a trace of huge modulus, whose real part alone can be small.
    """
    cols_h = cols.conj().T
    inv = _umath_linalg.inv(cols_h @ cols, signature="D->D")
    cond_sq = np.vdot(cols, cols).real * abs(inv.trace())
    return inv @ (cols_h @ b) if 0 < cond_sq < _GRAM_COND_MAX else None


def _fit(WH: np.ndarray, G: np.ndarray, b: np.ndarray, J: np.ndarray):
    """Least-squares fit of b on the frozen-factor columns J: (w, A w).

    A Gram solve (_gram_solve) when |J| <= m and the block C = WH @ G[:, J]
    is well conditioned, else the minimum-norm np.linalg.lstsq solution.
    It runs inside recover's np.errstate(invalid="ignore"): an exactly
    singular Gram inverse raises the invalid flag.
    """
    cols = WH @ G[:, J]
    sol = _gram_solve(cols, b) if len(J) <= len(b) else None
    if sol is None:
        sol, *_ = np.linalg.lstsq(cols, b, rcond=None)
    w = np.zeros(G.shape[1], dtype=complex)
    w[J] = sol
    return w, cols @ sol


def _half_step(WH: np.ndarray, G: np.ndarray, b: np.ndarray, w: np.ndarray,
               Aw: np.ndarray, s: int):
    """One factor update with the other frozen, on the map A = WH @ G:
    (w, A w, ||b - A w||).

    Aw is A w for the current iterate, as the previous refit left it.
    Hard-thresholding-pursuit rounds select the top-s support of
    w + A^H (b - A w) and refit exactly on it (_fit), until the support
    repeats or 8 rounds have run. With s >= n that is one exact
    least-squares solve, so the data residual cannot increase.
    """
    J_prev = None
    for _ in range(8):
        r = b - Aw
        g = _adjoint(WH, G, r)
        J = (-np.abs(w + g)).argsort()[:s]
        J.sort()
        key = J.tobytes()
        if key == J_prev:
            break
        w, Aw = _fit(WH, G, b, J)
        J_prev = key
    else:
        r = b - Aw
    return w, Aw, vnorm(r)


def _sparsity_schedule(s: int, m: int, n: int) -> list:
    """Relaxed-to-target sparsity levels: start near min(4s, m/3), halve."""
    s0 = min(max(4 * s, s + 4), max(s, m // 3), n)
    out = []
    while s0 > s:
        out.append(s0)
        s0 = max(s, -(-s0 // 2))
    out.append(s)
    return out


def _step_norm(u, v, u0, v0, v_norm: float, u0_norm: float) -> float:
    """||u v^T - u0 v0^T||_F from the factor differences du, dv.

    The step is du v^T + u0 dv^T, of squared norm ||du||^2 ||v||^2 +
    ||u0||^2 ||dv||^2 + 2 Re(<du, u0> <v, dv>): every term is of the
    order of the step, so nothing of order ||X||^2 cancels as it does in
    the closed form ||p||^2 + ||q||^2 - 2 Re<p, q>. It still cancels
    when the step is much smaller than du and dv (u0 v0^T rescaled or
    rephased between its factors), which the solver's rebalanced, refit
    iterates do not do.
    """
    du, dv = u - u0, v - v0
    sq = (np.vdot(du, du).real * v_norm**2 + u0_norm**2 * np.vdot(dv, dv).real
          + 2.0 * (np.vdot(du, u0) * np.vdot(v, dv)).real)
    return math.sqrt(max(sq, 0.0))


def _run_attempt(op, b, opts, init: LiftedPoint, levels: list, rec: AttemptRecord):
    """One continuation sweep from init over the (s1, s2) levels: (u, v, residual).

    A level stops once the step between consecutive iterates falls below
    its tolerance times ||X||, or after opts.max_outer_iters outer
    iterations. The relaxed levels use _WARM_TOL. The final level uses
    _OUTER_TOL while the residual after the iteration's last half-step
    is at most _POLISH_RESID * ||b||, and _WARM_TOL above it: a failed
    basin is not polished. Each half-step takes the measurement A(u v^T)
    its predecessor's refit computed (the rebalancing leaves it
    unchanged), so the attempt's residual is that of its last half-step.

    Fills rec as it goes: the outer iterations of each level in
    level_iters, the stop reason of each finished level ("outer_tol",
    "warm" or "cap") in level_stops, and half_steps, so that all three
    stay readable after a SolverBreakdownError.
    """
    u, v = init.u, init.v
    Aw = op.forward(u, v)
    u_norm = vnorm(u)
    polish_resid = _POLISH_RESID * vnorm(b)
    last = len(levels) - 1
    for level, (s1_now, s2_now) in enumerate(levels):
        rec.level_iters.append(0)
        stop = "cap"
        for _ in range(opts.max_outer_iters):
            rec.level_iters[-1] += 1
            u0, v0, u0_norm = u, v, u_norm
            u, Aw, _ = _half_step(*op.frozen("left", v), b, u, Aw, s1_now)
            rec.half_steps += 1
            nu = vnorm(u)
            if nu == 0:
                raise SolverBreakdownError("left factor collapsed",
                                           LiftedPoint(u, v))
            v, Aw, resid = _half_step(*op.frozen("right", u), b, v, Aw, s2_now)
            rec.half_steps += 1
            nv = vnorm(v)
            if nv == 0:
                raise SolverBreakdownError("right factor collapsed",
                                           LiftedPoint(u, v))
            # rebalance factor norms; the lifted point, of norm nu * nv,
            # is unchanged and both factors now have norm sqrt(nu * nv)
            ratio = math.sqrt(nv / nu)
            u, v = u * ratio, v / ratio
            u_norm = math.sqrt(nu * nv)
            polish = level == last and resid <= polish_resid
            tol = _OUTER_TOL if polish else _WARM_TOL
            if _step_norm(u, v, u0, v0, u_norm, u0_norm) < tol * nu * nv:
                stop = "outer_tol" if polish else "warm"
                break
        rec.level_stops.append(stop)
    return u, v, resid


def _attempt(solve: tuple, a: int):
    """Attempt a of the solve (op, b, opts, T, energies, levels): its
    AttemptRecord and either (u, v, residual) or the SolverBreakdownError
    it raised. Both schedules of _attempt_results run this on the same
    inputs, so an attempt's output does not depend on where it ran."""
    op, b, opts, T, energies, levels = solve
    flavor, init = _attempt_init(T, energies, *levels[0], a, opts.seed)
    rec = AttemptRecord(flavor)
    try:
        with np.errstate(invalid="ignore"):  # for the fits' Gram inverses
            return rec, _run_attempt(op, b, opts, init, levels, rec)
    except SolverBreakdownError as err:
        return rec, err


# The solve a pool worker's attempts belong to, set once per worker.
_worker_solve = None


def _init_worker(solve: tuple):
    global _worker_solve
    _worker_solve = solve


def _worker_attempt(a: int):
    return _attempt(_worker_solve, a)


def _blas_threads(cpus: int) -> int:
    """Threads per process of NumPy's bundled OpenBLAS, read from the
    environment as it reads them: the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS that holds a positive integer,
    else one per usable CPU (cpus)."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def _pool_workers(restarts: int, first_s: float) -> int:
    """Pool size for restarts 1..restarts after attempt 0 took first_s
    seconds, or 0 to run them in process.

    A pool needs the restarts' estimated serial time, first_s * restarts,
    to reach _FAN_OUT_S, and a fork start method. Its workers are the
    usable CPUs divided by the BLAS threads of one process (_blas_threads),
    at most one per restart, and it starts only with two or more: two
    processes that each ran a two-thread BLAS on two CPUs took a slice
    m = 16 solve 5 to 9 times longer than one process. A process
    that is itself a multiprocessing child, such as a sweep's pool
    worker, never starts one, so pools do not nest.
    """
    if (first_s * restarts < _FAN_OUT_S or multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 0
    cpus = len(os.sched_getaffinity(0))
    workers = min(cpus // _blas_threads(cpus), restarts)
    return workers if workers > 1 else 0


def _attempt_results(solve: tuple, restarts: int):
    """_attempt's results for attempts 0..restarts, in attempt order.

    Attempt 0 runs in process. The restarts run in process too, one after
    the other, unless _pool_workers sizes a pool for them: then all are
    queued at once on a fork-context pool whose workers receive solve
    once, and are yielded as they come due. Closing the generator cancels
    the attempts still queued and joins the pool, so no worker outlives
    it.
    """
    start = perf_counter()
    first = _attempt(solve, 0)
    first_s = perf_counter() - start
    yield first
    workers = _pool_workers(restarts, first_s)
    if not workers:
        for a in range(1, restarts + 1):
            yield _attempt(solve, a)
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(solve,))
    try:
        for future in [pool.submit(_worker_attempt, a) for a in range(1, restarts + 1)]:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def recover(ens: Ensemble, b: np.ndarray, opts: SolveOptions) -> SolveResult:
    """Alternating restricted least squares with restarts and continuation.

    Runs up to opts.restarts + 1 attempts, each a full continuation
    sweep from the restart pool of _attempt_init (the deterministic
    energy screening first). Keeps the attempt with the smallest
    residual, the earliest one unless a later residual is smaller by
    more than the relative margin _ATTEMPT_MARGIN, and stops early once
    a residual falls below _RESID_STOP * ||b||. Every attempt, one that
    breaks down included, counts in `attempts` and leaves its
    AttemptRecord in `attempt_log`; a breakdown is re-raised only if
    every attempt broke down. Attempt 0 runs in process; the restarts run
    there or on a fork pool (_attempt_results, _pool_workers), with the
    same results bit for bit. The first residual stop cancels the queued
    attempts, and the pool is joined before recover returns or raises.
    Each side whose cap binds (mu < s) then has its kept factor replaced
    by project_flat(u, mu1), which keeps its support and lands strictly
    inside the cap, and the other factor, unless its own cap binds, refit
    on its support (a kept factor is never zero: an attempt whose factor
    collapses breaks down); so the factors lie in the model. A cap above
    n, or with s > n, is rejected before the first attempt. All
    stochastic choices derive from opts.seed, never from global state.
    The factored operator (F Phi, F Psi and the scaled inverse-DFT rows,
    2 n^2 + m n complex entries) and the n x n adjoint image of b built
    from it are made once per call, at every n: 3 n^2 + m n entries in
    all, about what the two dictionaries the ensemble already stores
    take.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (ens.m,):
        raise ValueError("b must have length m")
    b_norm = vnorm(b)
    if b_norm == 0:
        raise ZeroVectorError("cannot initialize from zero measurements")
    if any(mu is not None and mu > ens.n for mu in (opts.mu1, opts.mu2)):
        raise ValueError("flatness caps must be at most n")
    # ModelSpec.cap_binds per side; ModelSpec rejects a cap with s > n
    binds1, binds2 = (mu is not None and ModelSpec(ens.n, s, mu=mu).cap_binds
                      for s, mu in ((opts.s1, opts.mu1), (opts.s2, opts.mu2)))
    sched1 = _sparsity_schedule(opts.s1, ens.m, ens.n)
    sched2 = _sparsity_schedule(opts.s2, ens.m, ens.n)
    depth = max(len(sched1), len(sched2))
    levels = list(zip([sched1[0]] * (depth - len(sched1)) + sched1,
                      [sched2[0]] * (depth - len(sched2)) + sched2))

    op = FactoredOperator.of(ens)
    T = op.adjoint_image(b)
    energies = np.linalg.norm(T, axis=1) ** 2, np.linalg.norm(T, axis=0) ** 2
    best = None
    breakdown = None
    attempt_log = []
    results = _attempt_results((op, b, opts, T, energies, levels), opts.restarts)
    with contextlib.closing(results):
        for rec, outcome in results:
            attempt_log.append(rec)
            if isinstance(outcome, SolverBreakdownError):
                breakdown = outcome
                continue
            u, v, resid = outcome
            rec.resid_rel = resid / b_norm
            # no earlier residual met the stop, so this tests the smallest so far
            rec.stop = "resid_stop" if resid <= _RESID_STOP * b_norm else "done"
            if best is None or resid < (1.0 - _ATTEMPT_MARGIN) * best[2]:
                best = (u, v, resid, rec)
            if rec.stop == "resid_stop":
                break
    if best is None:
        raise breakdown
    u, v, resid, kept = best

    with np.errstate(invalid="ignore"):  # for the fits' Gram inverses
        if binds1:
            u = project_flat(u, opts.mu1)
            v, _ = _fit(*op.frozen("right", u), b, v.nonzero()[0])
        if binds2:
            v = project_flat(v, opts.mu2)
            if not binds1:
                u, _ = _fit(*op.frozen("left", v), b, u.nonzero()[0])
    if binds1 or binds2:
        resid = vnorm(op.forward(u, v) - b)

    return SolveResult(
        u_hat=u,
        v_hat=v,
        iterations=sum(kept.level_iters),
        converged=kept.level_stops[-1] != "cap",
        residual_norm=resid,
        attempt_log=attempt_log,
    )


def success_metric(
    p_hat: LiftedPoint,
    p_true: LiftedPoint,
    b: np.ndarray,
    z_norm: float,
    ens: Ensemble,
) -> tuple[float, float]:
    """Relative lifted error and noise-to-signal ratio.

    rel_error = ||u_hat v_hat^T - u v^T||_F / ||u v^T||_F, computed
    factor-wise, so it is invariant under the reciprocal scaling
    ambiguity (c u, v/c). noise_ratio = z_norm / ||A(u v^T)||_2.
    """
    truth_norm = p_true.norm_f
    if truth_norm == 0:
        raise ZeroVectorError("ground truth must be nonzero")
    rel = lifted_dist(p_hat, p_true) / truth_norm
    sig = float(np.linalg.norm(forward(ens, p_true)))
    if sig == 0:
        raise ZeroVectorError("planted point has zero measurement")
    return rel, float(z_norm) / sig


def plant_instance(
    n: int,
    m: int,
    s1: int,
    s2: int,
    seed: int = 0,
    phi_kind: str = "gaussian",
    psi_kind: str = "gaussian",
    mu1: float | None = None,
    mu2: float | None = None,
    noise_level: float = 0.0,
    omega_mode: str = "without_replacement",
):
    """Draw an ensemble, a planted model pair, and its noisy measurement.

    noise_level is relative: the additive complex Gaussian noise is
    scaled to noise_level * ||A(X)||, and must be finite and
    nonnegative. Returns (ens, truth, b, z_norm).
    """
    if not 0 <= noise_level < math.inf:
        raise ValueError("noise_level must be finite and nonnegative")
    ens = Ensemble.generate(n, m, phi_kind, psi_kind,
                            seed=derive_seed(seed, "ensemble"),
                            omega_mode=omega_mode)
    u = sample_model(ModelSpec(n, s1, mu=mu1, side="left"),
                     rng_for(seed, "plant-u"))
    v = sample_model(ModelSpec(n, s2, mu=mu2, side="right"),
                     rng_for(seed, "plant-v"))
    truth = LiftedPoint(u, v)
    b0 = forward(ens, truth)
    if noise_level > 0:
        z = complex_gaussian(rng_for(seed, "noise"), m)
        z *= noise_level * np.linalg.norm(b0) / np.linalg.norm(z)
    else:
        z = np.zeros(m, dtype=complex)
    return ens, truth, b0 + z, float(np.linalg.norm(z))
