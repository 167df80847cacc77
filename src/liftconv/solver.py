"""Sparse rank-one recovery by alternating least squares.

Spectral initialization from the adjoint image of the data, then
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
np.linalg.lstsq solution.

Every solve measures with one measurement.FactoredOperator: its
frozen-factor map is the m x n matrix sqrt(n/m) F^-1[omega, :]
diag(F Psi v) (F Phi) (swap Phi and Psi to free the right factor), kept
in factored form, and its adjoint image of the data is built densely,
at every n: each solve holds 3 n^2 + m n complex entries.

Two further devices widen the basin of attraction. Sparsity
continuation starts each attempt at a relaxed level (capped by m/3) and
halves it down to the requested one. A relaxed level is only a warm
start: the next level rethresholds to a smaller support and refits from
scratch, so it stops once consecutive iterates are within
max(outer_tol, _WARM_TOL) of each other. The final level iterates to
outer_tol only while its residual is at most _POLISH_RESID * ||b||; a
failed basin, whose residual stays above that, stops at the warm
tolerance too, since no polishing makes it win. The step between
iterates is measured from the factor differences (_step_norm), which
keeps its digits at small steps. And the attempt is
restarted from a reseeded support screening whenever the final
residual stays large, which is how failed basins announce themselves.
Restarts draw from a stream derived from SolveOptions.seed, so a solve
is a deterministic function of (ensemble, data, options);
SolveResult.attempt_log records what each attempt did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measurement import Ensemble, FactoredOperator, LiftedPoint, forward, lifted_dist
from .models import ModelSpec, hard_threshold, project_flat, sample_model
from .util import ZeroVectorError, complex_gaussian, derive_seed, rng_for, unit, vnorm

__all__ = [
    "AttemptRecord",
    "SolveOptions",
    "SolveResult",
    "SolverBreakdownError",
    "spectral_init",
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

# Every continuation level but the last stops once the step between
# consecutive iterates is below max(outer_tol, _WARM_TOL) * ||X||: the
# next level rethresholds and refits, discarding the digits beyond this.
# So does the final level of a failed basin (_POLISH_RESID).
_WARM_TOL = 1e-4

# The final level polishes to outer_tol only while the residual is at
# most this fraction of ||b||. Failed basins sit far above it and stop
# at the warm tolerance instead: on 30 C10 instances (n=128, s=3, mu=3,
# m from 16 to 64), after 8 final-level half-steps, failing attempts
# are at 0.31 ||b|| or more and successful ones at 1.3e-2 ||b|| or less.
_POLISH_RESID = 0.1


class SolverBreakdownError(RuntimeError):
    """Inner solver broke down; carries the current iterate pair."""

    def __init__(self, message: str, iterate: LiftedPoint):
        super().__init__(message)
        self.iterate = iterate


@dataclass
class SolveOptions:
    """Solver settings. outer_tol is the final continuation level's
    tolerance on the relative step between consecutive iterates, in
    force while the residual is at most _POLISH_RESID * ||b|| (0.1); the
    relaxed levels, and the final level above that residual, stop at
    max(outer_tol, _WARM_TOL). A flatness cap mu1 (mu2), from 1 to n,
    adds one flatness post-step on the left (right) factor."""

    s1: int
    s2: int
    max_outer_iters: int = 40
    outer_tol: float = 1e-8
    restarts: int = 14
    seed: int = 0
    mu1: float | None = None
    mu2: float | None = None

    def __post_init__(self):
        if self.s1 < 1 or self.s2 < 1:
            raise ValueError("sparsity levels must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("iteration caps must be positive")
        if not 0 < self.outer_tol < math.inf:
            raise ValueError("tolerances must be positive and finite")
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


def _thresholded_pair(u0: np.ndarray, v0: np.ndarray, k1: int, k2: int) -> LiftedPoint:
    return LiftedPoint(unit(hard_threshold(u0, k1)), unit(hard_threshold(v0, k2)))


def spectral_init(ens: Ensemble, b: np.ndarray, s1: int, s2: int) -> LiftedPoint:
    """Thresholded leading singular pair of the adjoint image of b.

    The image comes from the factored operator, as in recover: 3 n^2 +
    m n complex entries and one full dense SVD at every n (about 1.8 s
    at n = 1024 with one BLAS thread). Factors are hard thresholded to
    their sparsity levels and renormalized; the overall scale is left to
    the first least-squares half-step.
    """
    b = np.asarray(b, dtype=complex)
    if np.linalg.norm(b) == 0:
        raise ZeroVectorError("cannot initialize from zero measurements")
    T = FactoredOperator.of(ens).adjoint_image(b)
    return _thresholded_pair(*_leading_pair_dense(T), s1, s2)


def _screened_pair(T: np.ndarray, k1: int, k2: int, rng=None, weighted: bool = True):
    """Leading pair of the adjoint image T screened to k1 rows, k2 columns.

    Rows and columns are picked by energy (rng None), drawn with
    energy-proportional probabilities (weighted restarts), or drawn
    uniformly (exploration restarts); the pair is the leading singular
    pair of the selected k1 x k2 block, zero elsewhere.
    """
    n = T.shape[0]
    row_e = np.linalg.norm(T, axis=1) ** 2
    col_e = np.linalg.norm(T, axis=0) ** 2
    if rng is None:
        rows = np.argsort(-row_e)[:k1]
        cols = np.argsort(-col_e)[:k2]
    elif weighted:
        rows = rng.choice(n, size=k1, replace=False, p=row_e / row_e.sum())
        cols = rng.choice(n, size=k2, replace=False, p=col_e / col_e.sum())
    else:
        rows = rng.choice(n, size=k1, replace=False)
        cols = rng.choice(n, size=k2, replace=False)
    block = T[np.ix_(rows, cols)]
    if not np.any(block):
        return _thresholded_pair(*_leading_pair_dense(T), k1, k2)
    U, _, Vh = np.linalg.svd(block)
    u = np.zeros(n, dtype=complex)
    v = np.zeros(n, dtype=complex)
    u[rows] = U[:, 0]
    v[cols] = Vh[0, :]
    return LiftedPoint(unit(u), unit(v))


def _init_flavor(attempt: int) -> str:
    if attempt == 0:
        return "screened"
    return ("weighted", "uniform", "gaussian")[(attempt - 1) % 3]


def _attempt_init(n: int, T: np.ndarray, k1: int, k2: int, attempt: int,
                  seed: int) -> LiftedPoint:
    """Initialization pool for restarts.

    Attempt 0 is the deterministic energy screening; later attempts
    cycle energy-weighted screening, uniform screening, and dense
    random pairs, so repeated restarts explore genuinely different
    basins even when the adjoint image misranks the true support.
    """
    flavor = _init_flavor(attempt)
    if flavor == "screened":
        return _screened_pair(T, k1, k2)
    rng = rng_for(seed, "restart", attempt)
    if flavor == "gaussian":
        return LiftedPoint(unit(complex_gaussian(rng, n)), unit(complex_gaussian(rng, n)))
    return _screened_pair(T, k1, k2, rng, weighted=flavor == "weighted")


# -- half steps ---------------------------------------------------------------


def _adjoint(WH: np.ndarray, G: np.ndarray, r: np.ndarray) -> np.ndarray:
    """G^H (WH^H r), evaluated as conj((conj(r) @ WH) @ G) without copying."""
    return ((r.conj() @ WH) @ G).conj()


def _gram_solve(cols: np.ndarray, b: np.ndarray):
    """Solution of the normal equations (C^H C) x = C^H b, or None.

    None unless cond_F(C)^2 = ||C||_F^2 tr((C^H C)^-1), which lies
    between cond(C)^2 and |J|^2 cond(C)^2, is below _GRAM_COND_MAX; a
    numerically singular Gram matrix gives a huge trace of either sign.
    """
    cols_h = cols.conj().T
    try:
        inv = np.linalg.inv(cols_h @ cols)
    except np.linalg.LinAlgError:
        return None
    cond_sq = np.vdot(cols, cols).real * inv.trace().real
    return inv @ (cols_h @ b) if 0 < cond_sq < _GRAM_COND_MAX else None


def _refit(WH: np.ndarray, G: np.ndarray, b: np.ndarray, J: np.ndarray):
    """Least-squares fit of b on the frozen-factor columns J: (w, A w).

    With |J| <= m and a well-conditioned block C = WH @ G[:, J] the fit
    solves the |J| x |J| normal equations (_gram_solve). A wide support
    (|J| > m) and a rank-deficient or ill-conditioned block, for example
    repeated omega positions or a sparse factor over an identity
    dictionary, keep the minimum-norm np.linalg.lstsq solution.
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
    w + A^H (b - A w) and refit exactly on it (_refit: a Gram solve for
    a well-conditioned block of at most m columns, minimum-norm lstsq
    otherwise), until the support repeats or 8 rounds have run. With
    s >= n that is one exact least-squares solve, so the data residual
    cannot increase.
    """
    J_prev = None
    for _ in range(8):
        r = b - Aw
        g = _adjoint(WH, G, r)
        J = (-np.abs(w + g)).argsort()[:s]
        J.sort()
        if J_prev is not None and (J == J_prev).all():
            break
        w, Aw = _refit(WH, G, b, J)
        J_prev = J
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
    return float(np.sqrt(max(sq, 0.0)))


def _run_attempt(op, b, opts, init: LiftedPoint, levels: list, rec: AttemptRecord):
    """One continuation sweep from init over the (s1, s2) levels: (u, v, residual).

    A level stops once the step between consecutive iterates falls below
    its tolerance times ||X||, or after opts.max_outer_iters outer
    iterations. The relaxed levels use max(outer_tol, _WARM_TOL). The
    final level uses outer_tol while the residual after the iteration's
    last half-step is at most _POLISH_RESID * ||b||, and the warm
    tolerance above it: a failed basin is not polished. Each half-step
    takes the measurement A(u v^T) its predecessor's refit computed (the
    rebalancing leaves it unchanged), so the attempt's residual is that
    of its last half-step.

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
    warm_tol = max(opts.outer_tol, _WARM_TOL)
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
            ratio = np.sqrt(nv / nu)
            u, v = u * ratio, v / ratio
            u_norm = np.sqrt(nu * nv)
            polish = level == last and resid <= polish_resid
            tol = opts.outer_tol if polish else warm_tol
            if _step_norm(u, v, u0, v0, u_norm, u0_norm) < tol * nu * nv:
                stop = "outer_tol" if polish else "warm"
                break
        rec.level_stops.append(stop)
    return u, v, resid


def _flatness_step(ens: Ensemble, w: np.ndarray, mu: float, s: int, side: str) -> np.ndarray:
    """Flatten the dictionary image of a factor, then pull back and rethreshold."""
    img = ens.apply_phi(w) if side == "left" else ens.apply_psi(w)
    flat = project_flat(img, mu)
    mat = ens.phi if side == "left" else ens.psi
    back = flat if mat is None else np.linalg.solve(mat, flat)
    return hard_threshold(back, s)


def recover(ens: Ensemble, b: np.ndarray, opts: SolveOptions) -> SolveResult:
    """Alternating restricted least squares with restarts and continuation.

    Runs up to opts.restarts + 1 attempts, each a full continuation
    sweep from the restart pool of _attempt_init (the deterministic
    energy screening first). Keeps
    the attempt with the smallest residual, the earliest one unless a
    later residual is smaller by more than the relative margin
    _ATTEMPT_MARGIN, and stops early once a residual falls below
    _RESID_STOP * ||b||. Every attempt, one that breaks down included,
    counts in `attempts` and leaves its AttemptRecord in `attempt_log`;
    a breakdown is re-raised only if every attempt broke down. Each side
    whose cap (opts.mu1, opts.mu2) is set then takes one flatness
    post-step (_flatness_step, and a refit of the other factor); a cap
    above n is rejected before the first attempt. All stochastic
    choices derive from opts.seed, never from global state.
    The factored operator (F Phi, F Psi and the scaled
    inverse-DFT rows, 2 n^2 + m n complex entries) and the n x n adjoint
    image of b built from it are made once per call, at every n: 3 n^2
    + m n entries in all, about what the two Gaussian dictionaries the
    ensemble already stores take.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (ens.m,):
        raise ValueError("b must have length m")
    if np.linalg.norm(b) == 0:
        raise ZeroVectorError("cannot initialize from zero measurements")
    if any(mu is not None and mu > ens.n for mu in (opts.mu1, opts.mu2)):
        raise ValueError("flatness caps must be at most n")
    sched1 = _sparsity_schedule(opts.s1, ens.m, ens.n)
    sched2 = _sparsity_schedule(opts.s2, ens.m, ens.n)
    depth = max(len(sched1), len(sched2))
    levels = list(zip([sched1[0]] * (depth - len(sched1)) + sched1,
                      [sched2[0]] * (depth - len(sched2)) + sched2))

    op = FactoredOperator.of(ens)
    T = op.adjoint_image(b)
    b_norm = float(np.linalg.norm(b))
    best = None
    breakdown = None
    attempt_log = []
    for a in range(opts.restarts + 1):
        init = _attempt_init(ens.n, T, *levels[0], a, opts.seed)
        rec = AttemptRecord(_init_flavor(a))
        attempt_log.append(rec)
        try:
            u, v, resid = _run_attempt(op, b, opts, init, levels, rec)
        except SolverBreakdownError as err:
            breakdown = err
            continue
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

    if opts.mu1 is not None or opts.mu2 is not None:
        if opts.mu1 is not None:
            u = _flatness_step(ens, u, opts.mu1, opts.s1, "left")
            J = np.nonzero(v)[0] if np.any(v) else np.arange(ens.n)
            v, _ = _refit(*op.frozen("right", u), b, J)
        if opts.mu2 is not None:
            v = _flatness_step(ens, v, opts.mu2, opts.s2, "right")
            J = np.nonzero(u)[0] if np.any(u) else np.arange(ens.n)
            u, _ = _refit(*op.frozen("left", v), b, J)
        resid = float(np.linalg.norm(op.forward(u, v) - b))

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
    flavor: str = "exact",
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
    u = sample_model(ModelSpec(n, s1, mu=mu1, flavor=flavor, side="left"),
                     rng_for(seed, "plant-u"))
    v = sample_model(ModelSpec(n, s2, mu=mu2, flavor=flavor, side="right"),
                     rng_for(seed, "plant-v"))
    truth = LiftedPoint(u, v)
    b0 = forward(ens, truth)
    if noise_level > 0:
        z = complex_gaussian(rng_for(seed, "noise"), m)
        z *= noise_level * np.linalg.norm(b0) / np.linalg.norm(z)
    else:
        z = np.zeros(m, dtype=complex)
    return ens, truth, b0 + z, float(np.linalg.norm(z))
