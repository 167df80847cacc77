"""Recovery solver: planted instances, invariances, and failure modes."""

import hashlib
import itertools
import math
import os
import time
import warnings

import numpy as np
import pytest

from helpers import adjoint_apply, no_children, partial_forward, record_forks, recorded_under

import liftconv.models as models
import liftconv.solver as solver
import liftconv.util as util
from liftconv.measurement import (
    Ensemble,
    FactoredOperator,
    LiftedPoint,
    forward,
    lifted_dist,
)
from liftconv.models import ModelSpec, hard_threshold, spectral_flatness
from liftconv.solver import (
    SolveOptions,
    SolveResult,
    plant_instance,
    recover,
    success_metric,
    _adjoint,
    _attempt_init,
    _leading_pair_dense,
    _sparsity_schedule,
)
from liftconv.util import ZeroVectorError, complex_gaussian, rng_for, unit


@pytest.fixture
def serial(monkeypatch):
    # keeps every restart in process: a restart fanned out to a forked
    # sibling calls the sibling's copy of a monkeypatched counter, which
    # the test never sees
    monkeypatch.setattr(solver, "_FAN_OUT_S", math.inf)


# -- planting -----------------------------------------------------------------


def test_plant_instance_noiseless_measurement_is_exact():
    ens, truth, b, z_norm = plant_instance(16, 8, 2, 2, seed=90)
    assert z_norm == 0.0
    assert np.array_equal(b, forward(ens, truth))
    assert ModelSpec(16, 2, side="left").admits(truth.u)
    assert ModelSpec(16, 2, side="right").admits(truth.v)


def test_plant_instance_noise_is_scaled_relative():
    ens, truth, b, z_norm = plant_instance(16, 8, 2, 2, seed=91,
                                           noise_level=0.05)
    clean = forward(ens, truth)
    assert z_norm == pytest.approx(0.05 * np.linalg.norm(clean), rel=1e-12)
    assert np.linalg.norm(b - clean) == pytest.approx(z_norm, rel=1e-12)


@pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
def test_plant_instance_rejects_a_negative_or_non_finite_noise_level(noise):
    with pytest.raises(ValueError, match="noise_level"):
        plant_instance(16, 8, 2, 2, seed=94, noise_level=noise)


def test_plant_instance_has_no_sparsity_flavor():
    # every planted factor is s-sparse; there is no flavor to choose
    with pytest.raises(TypeError):
        plant_instance(16, 8, 2, 2, seed=93, flavor="exact")


def test_plant_instance_respects_flatness_caps():
    _, truth, _, _ = plant_instance(32, 16, 3, 3, seed=92, mu1=3.0, mu2=3.0)
    assert spectral_flatness(truth.u) <= 3.0 + 1e-8
    assert spectral_flatness(truth.v) <= 3.0 + 1e-8


def test_plant_instance_is_deterministic():
    a = plant_instance(16, 8, 2, 2, seed=93)
    b = plant_instance(16, 8, 2, 2, seed=93)
    assert np.array_equal(a[2], b[2])
    assert np.array_equal(a[1].u, b[1].u)


# -- initialization -----------------------------------------------------------


def test_leading_pair_dense_is_exact_on_rank_one():
    rng = rng_for(94, "lp")
    T = np.outer(complex_gaussian(rng, 8), complex_gaussian(rng, 8))
    u0, v0 = _leading_pair_dense(T)
    assert np.allclose(np.outer(u0, v0), T, atol=1e-12)


@pytest.mark.parametrize("attempt", [0, 1, 2])
def test_screened_pair_block_svd_matches_zero_padded_svd(attempt):
    # energy screening, then the energy-weighted and uniform restarts
    ens, _, b, _ = plant_instance(32, 16, 3, 3, seed=116)
    T = adjoint_apply(ens, b)
    energies = np.linalg.norm(T, axis=1) ** 2, np.linalg.norm(T, axis=0) ** 2
    flavor, p = _attempt_init(T, energies, 6, 5, attempt, 117)
    assert flavor == ("screened", "weighted", "uniform")[attempt]
    rows, cols = np.nonzero(p.u)[0], np.nonzero(p.v)[0]
    assert (rows.size, cols.size) == (6, 5)
    if attempt == 0:
        assert set(rows) == set(np.argsort(-np.linalg.norm(T, axis=1))[:6])
    # the leading pair of the k1 x k2 block zero-padded to n x n
    S = np.zeros_like(T)
    S[np.ix_(rows, cols)] = T[np.ix_(rows, cols)]
    U, _, Vh = np.linalg.svd(S)
    ref = np.outer(unit(U[:, 0]), unit(Vh[0, :]))
    assert np.linalg.norm(np.outer(p.u, p.v) - ref) <= 1e-12


def test_an_all_zero_screened_block_falls_back_to_the_thresholded_leading_pair():
    # over identity dictionaries T[j, k] = sqrt(n/m) b_l where (j + k) mod n
    # is omega_l, and 0 elsewhere; omega here misses every entry that the
    # uniform screening of attempt 2 selects. T is built exactly, since the
    # operator's FFTs leave rounding residue in its zeros
    n, m, seed = 16, 4, 5
    rng = rng_for(seed, "restart", 2)
    rows = rng.choice(n, size=2, replace=False)
    cols = rng.choice(n, size=2, replace=False)
    hit = {(r + c) % n for r in rows for c in cols}
    omega = np.array([pos for pos in range(n) if pos not in hit][:m])
    b = complex_gaussian(rng_for(seed, "b"), m)
    diagonals = np.add.outer(np.arange(n), np.arange(n)) % n
    T = np.zeros((n, n), dtype=complex)
    for pos, b_l in zip(omega, b):
        T[diagonals == pos] = np.sqrt(n / m) * b_l
    ens = Ensemble(n, m, omega, "identity", "identity")
    assert np.allclose(T, FactoredOperator.of(ens).adjoint_image(b), atol=1e-12)
    assert not np.any(T[np.ix_(rows, cols)])
    energies = np.linalg.norm(T, axis=1) ** 2, np.linalg.norm(T, axis=0) ** 2
    flavor, p = _attempt_init(T, energies, 2, 2, 2, seed)
    u0, v0 = _leading_pair_dense(T)
    assert flavor == "uniform"
    assert np.array_equal(p.u, unit(hard_threshold(u0, 2)))
    assert np.array_equal(p.v, unit(hard_threshold(v0, 2)))


def test_a_screened_block_of_rounding_residue_falls_back_to_the_leading_pair():
    # over identity dictionaries (n=16, m=4, omega={0, 3, 7, 9}) the
    # operator's adjoint image is structurally zero where (j + k) mod n
    # misses omega, but its FFTs leave residue there; a block that holds
    # only residue counts as zero against the floor ZERO_TOL * max|T|
    n, m, seed = 16, 4, 5
    omega = np.array([0, 3, 7, 9])
    ens = Ensemble(n, m, omega, "identity", "identity")
    T = FactoredOperator.of(ens).adjoint_image(complex_gaussian(rng_for(seed, "b"), m))
    energies = np.linalg.norm(T, axis=1) ** 2, np.linalg.norm(T, axis=0) ** 2
    u0, v0 = _leading_pair_dense(T)
    fallback = (unit(hard_threshold(u0, 2)), unit(hard_threshold(v0, 2)))
    residue = 0
    for attempt in range(2, 60, 3):  # the uniform screenings
        rng = rng_for(seed, "restart", attempt)
        rows = rng.choice(n, size=2, replace=False)
        cols = rng.choice(n, size=2, replace=False)
        misses = not np.isin(np.add.outer(rows, cols) % n, omega).any()
        flavor, p = _attempt_init(T, energies, 2, 2, attempt, seed)
        assert flavor == "uniform"
        took_fallback = np.array_equal(p.u, fallback[0]) and np.array_equal(p.v, fallback[1])
        assert took_fallback == misses
        residue += misses and np.any(T[np.ix_(rows, cols)])
    assert residue > 0


def test_restart_pool_explores_distinct_supports_beyond_n_256(monkeypatch, serial):
    # above n = 256 the screened restarts still draw their own supports
    inits = []

    def record(op, b, opts, init, levels, rec):
        inits.append(init)
        rec.level_stops.append("cap")
        return init.u, init.v, np.inf

    monkeypatch.setattr(solver, "_run_attempt", record)
    ens, _, b, _ = plant_instance(300, 24, 2, 2, seed=1)
    recover(ens, b, SolveOptions(s1=2, s2=2, restarts=5, seed=1))
    # attempts 0, 1, 4 energy screening, 2, 5 uniform; 3 is a dense random pair
    supports = [(frozenset(np.nonzero(inits[a].u)[0]),
                 frozenset(np.nonzero(inits[a].v)[0])) for a in (0, 1, 2, 4, 5)]
    assert all(len(u) == 8 and len(v) == 8 for u, v in supports)
    assert len(set(supports)) == len(supports)


# -- frozen-factor maps ---------------------------------------------------------


FROZEN_CASES = [
    ("gaussian", "gaussian", "without_replacement"),
    ("identity", "gaussian", "without_replacement"),
    ("gaussian", "identity", "iid_uniform"),
    ("identity", "identity", "iid_uniform"),
]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("phi_kind,psi_kind,omega_mode", FROZEN_CASES)
def test_frozen_factor_map_matches_fft_partial_map(side, phi_kind, psi_kind, omega_mode):
    n, m = 32, 20
    ens = Ensemble.generate(n, m, phi_kind, psi_kind, seed=120, omega_mode=omega_mode)
    if omega_mode == "iid_uniform":
        assert np.unique(ens.omega).size < m  # repeated sample positions
    rng = rng_for(121, "frozen")
    fixed, w, r = complex_gaussian(rng, n), complex_gaussian(rng, n), complex_gaussian(rng, m)
    op = FactoredOperator.of(ens)

    def close(got, ref):
        return np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    assert close(op.adjoint_image(r), adjoint_apply(ens, r))
    # a dense fixed factor, and a 3-sparse one as the solver's iterates are
    for fixed in (fixed, hard_threshold(fixed, 3)):
        pm = partial_forward(ens, side, fixed)
        WH, G = op.frozen(side, fixed)
        assert close(WH @ G, np.stack([pm.apply(e) for e in np.eye(n)], axis=1))
        assert close(WH @ (G @ w), pm.apply(w))
        assert close(_adjoint(WH, G, r), pm.adjoint(r))
        w_fit, Aw = _refit(WH, G, r, np.array([3, 7, 19]))
        assert np.count_nonzero(w_fit) == 3
        assert close(Aw, pm.apply(w_fit))


def _refit(WH, G, b, J):
    # a half-step's refit: _fit inside the np.errstate recover enters per solve
    with np.errstate(invalid="ignore"):
        return solver._fit(WH, G, b, J)


def _min_norm_fit(WH, G, b, J):
    cols = WH @ G[:, J]
    sol, *_ = np.linalg.lstsq(cols, b, rcond=None)
    return sol, cols @ sol


def _close(got, ref, tol=1e-10):
    return np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("phi_kind,psi_kind,omega_mode", FROZEN_CASES)
def test_refit_matches_min_norm_least_squares(side, phi_kind, psi_kind, omega_mode):
    n, m = 32, 20
    ens = Ensemble.generate(n, m, phi_kind, psi_kind, seed=120, omega_mode=omega_mode)
    rng = rng_for(123, "refit")
    WH, G = FactoredOperator.of(ens).frozen(side, complex_gaussian(rng, n))
    b = complex_gaussian(rng, m)
    for k in (1, 3, m // 3, m, m + 5):
        J = np.sort(rng.choice(n, size=k, replace=False))
        w, Aw = _refit(WH, G, b, J)
        sol, fit = _min_norm_fit(WH, G, b, J)
        assert not np.any(np.delete(w, J))
        if k > m:
            # a wide support keeps the minimum-norm lstsq solution itself
            assert np.array_equal(w[J], sol) and np.array_equal(Aw, fit)
        else:
            assert _close(w[J], sol) and _close(Aw, fit)


def test_refit_keeps_the_min_norm_solution_on_a_rank_deficient_block():
    # four distinct sample positions: five columns span at most rank 4,
    # where a plain Gram solve returns some least-squares solution, not
    # the minimum-norm one
    n, m = 16, 8
    ens = Ensemble(n=n, m=m, omega=np.array([0, 0, 3, 3, 5, 5, 9, 9]),
                   phi_kind="identity", psi_kind="identity")
    rng = rng_for(124, "rank-deficient")
    WH, G = FactoredOperator.of(ens).frozen("left", complex_gaussian(rng, n))
    b = complex_gaussian(rng, m)
    J = np.array([1, 4, 6, 8, 11])
    assert np.linalg.matrix_rank(WH @ G[:, J]) == 4
    w, Aw = _refit(WH, G, b, J)
    sol, fit = _min_norm_fit(WH, G, b, J)
    assert _close(w[J], sol) and _close(Aw, fit)


def test_refit_on_an_exactly_singular_gram_block_keeps_the_min_norm_fit():
    # columns 4 and 9 of G are identical, so every block below has an
    # exactly singular Gram matrix. LAPACK's inverse either meets a zero
    # pivot (a NaN inverse and the invalid flag) or returns a huge inverse
    # whose trace is nearly imaginary, with a small real part; both must
    # fall back to the minimum-norm lstsq fit without a warning
    n, m = 32, 20
    ens = Ensemble.generate(n, m, seed=120)
    rng = rng_for(125, "singular")
    WH, G = FactoredOperator.of(ens).frozen("left", complex_gaussian(rng, n))
    G = G.copy()
    G[:, 9] = G[:, 4]
    b = complex_gaussian(rng, m)
    zero_pivots = set()
    for J in ([4, 9, 17], [1, 4, 9], [2, 4, 9, 13], [4, 9, 20, 30]):
        J = np.array(J)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, Aw = _refit(WH, G, b, J)
        sol, fit = _min_norm_fit(WH, G, b, J)
        assert np.array_equal(w[J], sol) and np.array_equal(Aw, fit)
        cols = WH @ G[:, J]
        try:
            np.linalg.inv(cols.conj().T @ cols)
            zero_pivots.add(False)
        except np.linalg.LinAlgError:
            zero_pivots.add(True)
    assert zero_pivots == {True, False}


def test_recover_lets_no_warning_escape_on_a_rank_deficient_ensemble(monkeypatch, serial):
    # identity dictionaries over four distinct sample positions: some
    # half-step Gram blocks are exactly singular, and their LAPACK
    # inverses come back NaN with the invalid flag raised. With the
    # binding cap mu2 = 1.5 < s2 the post-step's refit of u on its five
    # columns, the last inverse of the solve, is one of them for this b
    ens = Ensemble(n=16, m=8, omega=np.array([0, 0, 3, 3, 5, 5, 9, 9]),
                   phi_kind="identity", psi_kind="identity")
    b = complex_gaussian(rng_for(136, "rank-deficient"), 8)
    nan_inverses = []
    real = solver._umath_linalg.inv

    def recording(a, signature):
        inv = real(a, signature=signature)
        nan_inverses.append(np.isnan(inv).any())
        return inv

    monkeypatch.setattr(solver._umath_linalg, "inv", recording)
    for s1, s2, mu2 in ((2, 2, None), (5, 3, 1.5)):
        nan_inverses.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = recover(ens, b, SolveOptions(s1=s1, s2=s2, seed=126, mu2=mu2))
        assert any(nan_inverses)
        assert nan_inverses[-1] == (mu2 is not None)
        assert res.attempts == 15 and np.isfinite(res.residual_norm)


def test_recover_refits_without_lstsq_on_a_c10_instance(monkeypatch, serial):
    # the Gaussian-dictionary blocks of the C10 grid are well conditioned,
    # so every refit takes the Gram solve
    calls = []
    real = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    ens, truth, b, _ = plant_instance(128, 32, 3, 3, seed=7005, mu1=3.0, mu2=3.0)
    res = recover(ens, b, SolveOptions(s1=3, s2=3, seed=7005))
    assert len(calls) == 0
    assert res.attempts == 13
    assert success_metric(res.point, truth, b, 0.0, ens)[0] <= 1e-4


# -- continuation schedule ------------------------------------------------------


def test_sparsity_schedule_halves_down_to_target():
    assert _sparsity_schedule(3, 64, 128) == [12, 6, 3]


def test_sparsity_schedule_degenerates_when_target_is_large():
    assert _sparsity_schedule(10, 12, 16) == [10]


def test_sparsity_schedule_always_ends_at_target():
    for s in (1, 2, 5, 9):
        for m in (6, 24, 96):
            sched = _sparsity_schedule(s, m, 128)
            assert sched[-1] == s
            assert all(a > b for a, b in zip(sched, sched[1:]))


# -- stopping rules -------------------------------------------------------------


@pytest.mark.parametrize("r", [1e-7, 1e-8, 1e-9])
def test_step_norm_and_lifted_dist_match_the_exact_small_distance(r):
    rng = rng_for(1, "dist")
    u, v, du = (complex_gaussian(rng, 128) for _ in range(3))
    u1 = u + r * np.linalg.norm(u) * du / np.linalg.norm(du)
    exact = r * np.linalg.norm(u) * np.linalg.norm(v)
    step = solver._step_norm(u1, v, u, v, np.linalg.norm(v), np.linalg.norm(u))
    assert abs(step - exact) <= 1e-6 * exact
    # lifted_dist cancels no term of order ||X||^2 either
    dist = lifted_dist(LiftedPoint(u1, v), LiftedPoint(u, v))
    assert abs(dist - exact) <= 1e-6 * exact


def test_step_norm_matches_the_dense_difference():
    rng = rng_for(2, "dist")
    u, v, u0, v0 = (complex_gaussian(rng, 16) for _ in range(4))
    dense = np.linalg.norm(np.outer(u, v) - np.outer(u0, v0))
    step = solver._step_norm(u, v, u0, v0, np.linalg.norm(v), np.linalg.norm(u0))
    assert step == pytest.approx(dense, rel=1e-12)


def _relative_steps_per_level(monkeypatch, ens, b, opts):
    """Solve, recording step / ||X|| per outer iteration, split by level."""
    steps = []
    real = solver._step_norm

    def recording(u, v, u0, v0, v_norm, u0_norm):
        step = real(u, v, u0, v0, v_norm, u0_norm)
        steps.append(step / (np.linalg.norm(u) * np.linalg.norm(v)))
        return step

    monkeypatch.setattr(solver, "_step_norm", recording)
    res = recover(ens, b, opts)
    levels = []
    for count in res.attempt_log[0].level_iters:
        levels.append(steps[:count])
        steps = steps[count:]
    return res, levels


def _assert_level_stopped_at(level_steps, tol):
    # the level ran until the first step below tol, and not past it
    assert level_steps[-1] < tol
    assert all(step >= tol for step in level_steps[:-1])


def test_relaxed_levels_stop_at_warm_start_precision(monkeypatch):
    ens, truth, b, _ = plant_instance(128, 64, 3, 3, seed=7000, mu1=3.0, mu2=3.0)
    opts = SolveOptions(s1=3, s2=3, seed=7000)
    res, levels = _relative_steps_per_level(monkeypatch, ens, b, opts)
    assert res.attempts == 1
    rec = res.attempt_log[0]
    assert len(rec.level_iters) == len(_sparsity_schedule(3, 64, 128)) == 3
    # the relaxed levels (s = 12, 6) stop on the warm tolerance, not the cap
    assert all(k < opts.max_outer_iters for k in rec.level_iters[:-1])
    for level_steps in levels[:-1]:
        _assert_level_stopped_at(level_steps, solver._WARM_TOL)
    # the final level still converges to _OUTER_TOL and meets the residual stop
    _assert_level_stopped_at(levels[-1], solver._OUTER_TOL)
    assert rec.level_stops == ["warm", "warm", "outer_tol"]
    assert res.converged and rec.stop == "resid_stop"
    assert res.residual_norm <= solver._RESID_STOP * np.linalg.norm(b)
    assert rec.resid_rel == res.residual_norm / np.linalg.norm(b)
    assert success_metric(res.point, truth, b, 0.0, ens)[0] <= 1e-6


def test_a_failed_basin_stops_at_warm_precision(monkeypatch):
    # m = 16 is below the C10 phase transition: every attempt fails, far
    # above _POLISH_RESID * ||b||, so no final level polishes to _OUTER_TOL
    ens, _, b, _ = plant_instance(128, 16, 3, 3, seed=7000, mu1=3.0, mu2=3.0)
    opts = SolveOptions(s1=3, s2=3, seed=7000)
    res, levels = _relative_steps_per_level(monkeypatch, ens, b, opts)
    assert res.attempts == 15
    assert all(rec.resid_rel >= 0.41 for rec in res.attempt_log)
    assert all(rec.level_stops[-1] in ("warm", "cap") for rec in res.attempt_log)
    # attempt 0's final level stops at its first step below _WARM_TOL,
    # after 11 iterations where polishing to _OUTER_TOL ran 25
    _assert_level_stopped_at(levels[-1], solver._WARM_TOL)
    assert len(levels[-1]) == 11


@pytest.mark.parametrize("m", [16, 64])
def test_the_residual_is_the_carried_measurement(m):
    # half-steps carry A(u v^T) from refit to refit; the reported residual
    # is that of the returned point
    ens, _, b, _ = plant_instance(128, m, 3, 3, seed=7000, mu1=3.0, mu2=3.0)
    res = recover(ens, b, SolveOptions(s1=3, s2=3, seed=7000))
    direct = np.linalg.norm(forward(ens, res.point) - b)
    assert abs(res.residual_norm - direct) <= 1e-12 * np.linalg.norm(b)


def test_attempt_log_records_every_attempt():
    ens, _, b, _ = plant_instance(32, 8, 3, 3, seed=119)
    res = recover(ens, b, SolveOptions(s1=3, s2=3, seed=119))
    log = res.attempt_log
    assert len(log) == res.attempts == 15
    assert [rec.init for rec in log[:5]] == [
        "screened", "weighted", "uniform", "gaussian", "weighted"]
    depth = len(_sparsity_schedule(3, 8, 32))
    b_norm = np.linalg.norm(b)
    for rec in log:
        assert rec.stop == "done"
        assert len(rec.level_iters) == depth
        assert len(rec.level_stops) == len(rec.level_iters)
        assert rec.half_steps == 2 * sum(rec.level_iters)
        assert rec.resid_rel > solver._RESID_STOP
    # the kept attempt is the earliest with the smallest residual
    kept = min(log, key=lambda rec: rec.resid_rel)
    assert res.iterations == sum(kept.level_iters)
    assert res.converged == (kept.level_stops[-1] != "cap")
    assert res.residual_norm == pytest.approx(kept.resid_rel * b_norm, rel=1e-12)


def test_attempt_log_keeps_the_work_of_a_broken_attempt(monkeypatch):
    real = solver._run_attempt
    calls = []

    def broken_first(op, b, opts, init, levels, rec):
        calls.append(1)
        if len(calls) == 1:
            rec.level_iters.append(1)
            rec.half_steps += 1
            return None
        return real(op, b, opts, init, levels, rec)

    monkeypatch.setattr(solver, "_run_attempt", broken_first)
    ens, _, b, _ = plant_instance(32, 24, 2, 2, seed=101)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, seed=101))
    broken = res.attempt_log[0]
    assert (broken.stop, broken.resid_rel) == ("breakdown", None)
    assert (broken.level_iters, broken.half_steps) == ([1], 1)
    # the level cut short by the breakdown has no stop reason
    assert broken.level_stops == []
    assert res.attempt_log[-1].stop == "resid_stop"
    assert res.attempts == len(res.attempt_log) >= 2


@pytest.mark.parametrize("zeroed", [1, 2], ids=["left", "right"])
def test_a_half_step_that_zeroes_its_factor_breaks_the_attempt(monkeypatch, serial, zeroed):
    # the first half-step (left factor) or the second (right factor) of
    # attempt 0 leaves its factor zero; the attempt stops there, keeping
    # the work done, and the later attempts run unchanged
    real = solver._half_step
    calls = []

    def zeroing(WH, G, b, w, Aw, s):
        calls.append(1)
        w, Aw, resid = real(WH, G, b, w, Aw, s)
        if len(calls) == zeroed:
            w = np.zeros_like(w)
        return w, Aw, resid

    monkeypatch.setattr(solver, "_half_step", zeroing)
    ens, _, b, _ = plant_instance(32, 24, 2, 2, seed=101)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, seed=101))
    broken = res.attempt_log[0]
    assert (broken.stop, broken.resid_rel) == ("breakdown", None)
    assert (broken.level_iters, broken.half_steps) == ([1], zeroed)
    assert broken.level_stops == []
    assert res.attempt_log[-1].stop == "resid_stop"
    assert res.attempts == len(res.attempt_log) >= 2


# -- recovery ------------------------------------------------------------------


def test_recover_solves_easy_instance():
    ens, truth, b, _ = plant_instance(32, 24, 2, 2, seed=101)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, seed=101))
    rel, _ = success_metric(res.point, truth, b, 0.0, ens)
    assert rel <= 1e-6
    assert res.residual_norm <= 1e-6 * np.linalg.norm(b)
    assert res.iterations >= 1 and res.attempts >= 1


# Slice instances t = 0 (n=128, s=3, mu=3, seed 7000) at m = 16, a failing
# basin that runs all 15 attempts, m = 32, solved at attempt 0 after
# relaxed levels of |J| = 10 (the bulk of the slice's refits), and m = 64,
# solved at attempt 0: sha256 prefixes of the factor bytes and of the
# attempt log (every field, resid_rel as float.hex), the residual as
# float.hex, iterations and half-steps. Recorded from the half-step path
# that called np.linalg.norm, np.argsort/np.sort and np.flatnonzero (m =
# 16, 64) and from the Gram solve through np.linalg.inv (m = 32).
_SLICE_RECORD = {
    16: ("ac48ea1eb02c795d", "f3accc21ab38d60c", "0x1.a7fa13e0bc6b8p-2", 57, 1018),
    32: ("4840e744f0408ce0", "6bc7c2bfcd5fa94a", "0x1.12fa9effc85fdp-33", 45, 90),
    64: ("ff313f7061101d85", "cca4543ce733134b", "0x1.2a5e301da2ffap-33", 30, 60),
}


@pytest.mark.parametrize("m", sorted(_SLICE_RECORD))
def test_recover_on_the_slice_matches_its_recorded_bytes(m):
    ens, _, b, _ = plant_instance(128, m, 3, 3, seed=7000, mu1=3, mu2=3)
    res = recover(ens, b, SolveOptions(s1=3, s2=3, seed=7000))
    log = [(r.init, tuple(r.level_iters), tuple(r.level_stops), r.half_steps,
            None if r.resid_rel is None else r.resid_rel.hex(), r.stop)
           for r in res.attempt_log]
    got = (hashlib.sha256(res.u_hat.tobytes() + res.v_hat.tobytes()).hexdigest()[:16],
           hashlib.sha256(repr(log).encode()).hexdigest()[:16],
           res.residual_norm.hex(), res.iterations, sum(r.half_steps for r in res.attempt_log))
    assert got == _SLICE_RECORD[m], recorded_under()
    if m == 64:
        assert log == [("screened", (24, 2, 4), ("warm", "warm", "outer_tol"), 60,
                        "0x1.3012c70584d00p-33", "resid_stop")]


def test_recover_is_deterministic():
    ens, _, b, _ = plant_instance(32, 24, 2, 2, seed=102)
    r1 = recover(ens, b, SolveOptions(s1=2, s2=2, seed=103))
    r2 = recover(ens, b, SolveOptions(s1=2, s2=2, seed=103))
    assert np.array_equal(r1.u_hat, r2.u_hat)
    assert np.array_equal(r1.v_hat, r2.v_hat)


def test_recover_is_scale_equivariant():
    ens, _, b, _ = plant_instance(32, 24, 2, 2, seed=104)
    opts = SolveOptions(s1=2, s2=2, seed=105)
    r1 = recover(ens, b, opts)
    r2 = recover(ens, 2.0 * b, opts)
    doubled = LiftedPoint(2.0 * r1.u_hat, r1.v_hat)
    assert lifted_dist(r2.point, doubled) <= 1e-6 * doubled.norm_f


def test_recover_tracks_noise_floor():
    ens, truth, b, z_norm = plant_instance(32, 24, 2, 2, seed=106,
                                           noise_level=0.01)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, seed=106))
    rel, noise_ratio = success_metric(res.point, truth, b, z_norm, ens)
    assert rel <= 5.0 * noise_ratio


def test_residuals_monotone_without_thresholding(monkeypatch):
    # unrestricted half-steps are exact least squares: the data residual
    # can only go down
    ens, _, b, _ = plant_instance(16, 8, 2, 2, seed=107)
    opts = SolveOptions(s1=16, s2=16, restarts=0, max_outer_iters=6, seed=107)
    hs = []
    real = solver._half_step

    def recording(*args):
        w, Aw, resid = real(*args)
        hs.append(resid)
        return w, Aw, resid

    monkeypatch.setattr(solver, "_half_step", recording)
    res = recover(ens, b, opts)
    assert res.attempts == 1
    assert len(hs) >= 2
    assert all(hs[i + 1] <= hs[i] + 1e-10 for i in range(len(hs) - 1))


def test_recover_builds_the_adjoint_image_once(monkeypatch, serial):
    calls = []
    real = FactoredOperator.adjoint_image

    def counting(op, b):
        calls.append(1)
        return real(op, b)

    monkeypatch.setattr(FactoredOperator, "adjoint_image", counting)
    ens, _, b, _ = plant_instance(32, 8, 3, 3, seed=119)
    res = recover(ens, b, SolveOptions(s1=3, s2=3, seed=119))
    assert res.attempts == 15
    assert len(calls) == 1


def test_breakdown_in_one_attempt_does_not_abort_the_solve(monkeypatch, serial):
    real = solver._run_attempt
    calls = []

    def broken_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return None
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_run_attempt", broken_first)
    ens, truth, b, _ = plant_instance(32, 24, 2, 2, seed=101)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, seed=101))
    assert res.attempts >= 2
    assert success_metric(res.point, truth, b, 0.0, ens)[0] <= 1e-6

    def always_broken(*args, **kwargs):
        calls.append(1)

    calls.clear()
    monkeypatch.setattr(solver, "_run_attempt", always_broken)
    with pytest.raises(ZeroVectorError, match="collapsed to zero in all 3 attempts"):
        recover(ens, b, SolveOptions(s1=2, s2=2, seed=101, restarts=2))
    assert len(calls) == 3


def test_attempts_equal_up_to_rounding_keep_the_earliest(monkeypatch, serial):
    # residuals 1e-15 apart (relative) are one residual: the later,
    # longer attempt must not replace the earlier one on rounding alone
    ens, _, b, _ = plant_instance(16, 8, 2, 2, seed=122)
    r0 = 0.5 * np.linalg.norm(b)
    outcomes = iter([(r0, 60), (r0 * (1 - 1e-15), 75), (2 * r0, 90)])

    def fake(op, b, opts, init, levels, rec):
        resid, iters = next(outcomes)
        rec.level_iters.append(iters)
        rec.level_stops.append("outer_tol")
        return np.ones(16), np.ones(16), resid

    monkeypatch.setattr(solver, "_run_attempt", fake)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, restarts=2, seed=122))
    assert res.attempts == 3
    assert (res.iterations, res.residual_norm) == (60, r0)

    # a later attempt that is better beyond the margin still wins
    outcomes = iter([(r0, 60), (r0 * (1 - 1e-6), 75), (2 * r0, 90)])
    res = recover(ens, b, SolveOptions(s1=2, s2=2, restarts=2, seed=122))
    assert res.iterations == 75


def test_recover_validates_inputs():
    ens = Ensemble.generate(16, 8, seed=108)
    with pytest.raises(ValueError):
        recover(ens, np.zeros(8), SolveOptions(s1=2, s2=2))
    with pytest.raises(ValueError):
        recover(ens, np.ones(5), SolveOptions(s1=2, s2=2))


@pytest.mark.parametrize("m", [8, 24])
@pytest.mark.parametrize("mu1, mu2", [(3.0, 3.0), (32.0, 32.0), (None, 5.0)])
def test_caps_that_cannot_bind_leave_the_solve_bit_identical(m, mu1, mu2):
    # a cap mu >= s admits every s-sparse vector, so it does no flatness
    # work: a failing (m = 8) and a successful (m = 24) solve keep the
    # bytes of the cap-free solve
    ens, _, b, _ = plant_instance(32, m, 3, 3, seed=109, mu1=3.0, mu2=3.0)
    free = recover(ens, b, SolveOptions(s1=3, s2=3, seed=109))
    capped = recover(ens, b, SolveOptions(s1=3, s2=3, seed=109, mu1=mu1, mu2=mu2))
    assert capped.u_hat.tobytes() == free.u_hat.tobytes()
    assert capped.v_hat.tobytes() == free.v_hat.tobytes()
    assert capped.residual_norm.hex() == free.residual_norm.hex()
    assert capped.attempt_log == free.attempt_log


@pytest.mark.parametrize("n, m, s, mu, seed", [
    (64, 32, 4, 2.5, 101), (64, 48, 4, 2.5, 101), (128, 64, 3, 2.0, 104),
])
def test_binding_caps_return_a_hit_inside_the_flat_model(n, m, s, mu, seed):
    # a cap bounds the flatness of the coefficient vector, as in the
    # model the pair was planted from; flattening the dictionary image
    # Phi u instead moved every one of these solves off the truth
    ens, truth, b, _ = plant_instance(n, m, s, s, seed=seed, mu1=mu, mu2=mu)
    res = recover(ens, b, SolveOptions(s1=s, s2=s, seed=seed, mu1=mu, mu2=mu))
    assert success_metric(res.point, truth, b, 0.0, ens)[0] <= 1e-6
    spec = ModelSpec(n, s, mu=mu)
    assert spec.admits(res.u_hat) and spec.admits(res.v_hat)


def test_binding_cap_returns_factors_inside_the_model_on_failed_solves_too():
    # planted (n=128, s1=s2=3, mu2=2) at m=32: the cap step moves v_hat
    # inside the cap on its support and refits u_hat, so every returned
    # v_hat is admitted, the failed solves' as well
    spec = ModelSpec(128, 3, mu=2.0)
    misses = 0
    for seed in (0, 3, 4, 5, 9):
        ens, truth, b, _ = plant_instance(128, 32, 3, 3, seed=seed, mu2=2.0)
        res = recover(ens, b, SolveOptions(s1=3, s2=3, seed=seed, mu2=2.0))
        assert spec.admits(res.v_hat) and np.count_nonzero(res.v_hat) <= 3
        misses += success_metric(res.point, truth, b, 0.0, ens)[0] > 1e-4
    assert misses >= 3


@pytest.mark.parametrize("trials", [models._DESCENT_TRIALS, 0], ids=["descent", "fallback"])
def test_caps_near_1_return_factors_inside_the_model(trials, monkeypatch):
    # both caps bind at mu = 1.00001 < s; with no descent trials the
    # cap step lands by project_flat's fallback toward one entry alone
    monkeypatch.setattr(models, "_DESCENT_TRIALS", trials)
    spec = ModelSpec(32, 3, mu=1.00001)
    for seed in range(4):
        ens, _, b, _ = plant_instance(32, 24, 3, 3, seed=seed)
        res = recover(ens, b, SolveOptions(s1=3, s2=3, seed=seed, mu1=1.00001, mu2=1.00001))
        assert spec.admits(res.u_hat) and spec.admits(res.v_hat)
        assert np.count_nonzero(res.u_hat) <= 3 and np.count_nonzero(res.v_hat) <= 3


def test_flatness_caps_are_rejected_before_the_first_attempt(monkeypatch):
    # project_flat needs 1 <= mu <= n; a cap outside that must not wait
    # for the post-step, after every attempt has run
    calls = []
    real = solver._run_attempt

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solver, "_run_attempt", counting)
    ens, _, b, _ = plant_instance(32, 24, 3, 3, seed=109)
    with pytest.raises(ValueError, match="at least 1"):
        recover(ens, b, SolveOptions(s1=3, s2=3, seed=109, mu1=0.5))
    with pytest.raises(ValueError, match="at most n"):
        recover(ens, b, SolveOptions(s1=3, s2=3, seed=109, mu2=33.0))
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_data_is_rejected_before_the_first_attempt(bad, monkeypatch):
    # bad input, not a numerical failure: no SVD of a NaN adjoint image
    calls = []
    real = solver._attempt_init

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solver, "_attempt_init", counting)
    ens, _, b, _ = plant_instance(32, 16, 2, 2, seed=1)
    b[3] = bad
    with pytest.raises(ValueError, match="b must be finite"):
        recover(ens, b, SolveOptions(s1=2, s2=2, seed=1))
    assert calls == []


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(s1=0, s2=1)
    with pytest.raises(ValueError):
        SolveOptions(s1=1, s2=1, restarts=-1)
    with pytest.raises(ValueError):
        SolveOptions(s1=1, s2=1, mu2=float("nan"))


# -- restarts fanned out to forked siblings -------------------------------------


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fan_out(monkeypatch) -> list:
    """Fans out the restarts of every later solve on one process per
    usable CPU, whatever attempt 0 took and whatever BLAS thread count
    the environment sets; returns the list of this process's forks
    (record_forks), to which a host with one usable CPU adds none."""
    monkeypatch.setattr(solver, "_FAN_OUT_S", 0.0)
    monkeypatch.setattr(solver, "cpu_processes", _usable_cpus)
    return record_forks(monkeypatch)


def _siblings_for(restarts: int) -> int:
    return max(min(_usable_cpus(), restarts) - 1, 0)


@pytest.mark.parametrize("m, t, attempts", [(16, 0, 15), (32, 5, 13)])
def test_fanned_out_restarts_match_the_serial_loop_bit_for_bit(monkeypatch, m, t, attempts):
    # slice instances: m = 16 runs all 15 attempts; m = 32, t = 5 meets the
    # residual stop at attempt 12, which kills the siblings still computing
    ens, _, b, _ = plant_instance(128, m, 3, 3, seed=7000 + t, mu1=3, mu2=3)
    opts = SolveOptions(s1=3, s2=3, seed=7000 + t)
    monkeypatch.setattr(solver, "_FAN_OUT_S", math.inf)
    serial = recover(ens, b, opts)
    forks = _fan_out(monkeypatch)
    fanned = recover(ens, b, opts)
    assert len(forks) == _siblings_for(opts.restarts)
    assert no_children()
    assert fanned.attempts == serial.attempts == attempts
    assert fanned.u_hat.tobytes() == serial.u_hat.tobytes()
    assert fanned.v_hat.tobytes() == serial.v_hat.tobytes()
    assert fanned.attempt_log == serial.attempt_log
    assert fanned.residual_norm.hex() == serial.residual_norm.hex()
    assert (fanned.iterations, fanned.converged) == (serial.iterations, serial.converged)


def test_a_fanned_out_breakdown_is_logged_and_raised_as_in_the_serial_loop(monkeypatch):
    ens, _, b, _ = plant_instance(32, 8, 3, 3, seed=119)
    opts = SolveOptions(s1=3, s2=3, seed=119)
    real = solver._run_attempt

    def gaussian_breaks(op, b, opts, init, levels, rec):
        if rec.init != "gaussian":
            return real(op, b, opts, init, levels, rec)
        rec.level_iters.append(1)
        rec.half_steps += 1
        return None

    def every_attempt_breaks(op, b, opts, init, levels, rec):
        rec.level_iters.append(len(rec.init))
        rec.half_steps += 1
        return None

    # recover raises without a result: its attempt log is read as it is taken
    real_results, logged = solver._attempt_results, []

    def logging_results(solve, restarts):
        for rec, outcome in real_results(solve, restarts):
            logged.append(rec)
            yield rec, outcome

    outcomes = []
    for fan_out in (False, True):
        forks = _fan_out(monkeypatch) if fan_out else []
        if not fan_out:
            monkeypatch.setattr(solver, "_FAN_OUT_S", math.inf)
        monkeypatch.setattr(solver, "_run_attempt", gaussian_breaks)
        res = recover(ens, b, opts)
        monkeypatch.setattr(solver, "_run_attempt", every_attempt_breaks)
        monkeypatch.setattr(solver, "_attempt_results", logging_results)
        logged.clear()
        with pytest.raises(ZeroVectorError) as raised:
            recover(ens, b, opts)
        monkeypatch.setattr(solver, "_attempt_results", real_results)
        outcomes.append((res, str(raised.value), list(logged)))
    assert len(forks) == 2 * _siblings_for(opts.restarts)
    assert no_children()
    (serial, serial_err, serial_log), (fanned, fanned_err, fanned_log) = outcomes
    broken = [rec for rec in fanned.attempt_log if rec.init == "gaussian"]
    assert len(broken) == 4  # attempts 3, 6, 9 and 12
    assert all((rec.stop, rec.resid_rel, rec.level_iters, rec.half_steps)
               == ("breakdown", None, [1], 1) for rec in broken)
    assert fanned.attempt_log == serial.attempt_log
    assert fanned.u_hat.tobytes() == serial.u_hat.tobytes()
    assert fanned.v_hat.tobytes() == serial.v_hat.tobytes()
    # every attempt broke down: each is logged, and recover raises once
    assert fanned_err == serial_err == "a factor collapsed to zero in all 15 attempts"
    assert fanned_log == serial_log
    assert [rec.init for rec in fanned_log] == [
        "screened"] + ["weighted", "uniform", "gaussian"] * 4 + ["weighted", "uniform"]
    assert all((rec.stop, rec.resid_rel, rec.level_iters, rec.half_steps)
               == ("breakdown", None, [len(rec.init)], 1) for rec in fanned_log)


def test_an_error_in_a_fanned_out_attempt_is_raised_after_the_siblings_are_reaped(monkeypatch):
    ens, _, b, _ = plant_instance(32, 8, 3, 3, seed=119)
    real = solver._run_attempt

    def restarts_fail(op, b, opts, init, levels, rec):
        if rec.init == "screened":
            return real(op, b, opts, init, levels, rec)
        raise FloatingPointError(f"{rec.init} restart failed")

    forks = _fan_out(monkeypatch)
    monkeypatch.setattr(solver, "_run_attempt", restarts_fail)
    with pytest.raises(FloatingPointError, match="weighted restart failed"):
        recover(ens, b, SolveOptions(s1=3, s2=3, seed=119))
    assert len(forks) == _siblings_for(14)
    assert no_children()


def test_a_residual_stop_kills_the_restarts_it_discards(monkeypatch):
    # slice instance m = 32, t = 5 meets the residual stop at attempt 12;
    # a later restart computed by a sibling would take a minute, and must
    # be killed, not waited for
    ens, _, b, _ = plant_instance(128, 32, 3, 3, seed=7005, mu1=3, mu2=3)
    opts = SolveOptions(s1=3, s2=3, seed=7005)
    monkeypatch.setattr(solver, "_FAN_OUT_S", math.inf)
    serial = recover(ens, b, opts)
    caller, current = os.getpid(), []
    real_init, real_run = solver._attempt_init, solver._run_attempt

    def init_recording(T, energies, k1, k2, a, seed):
        current[:] = [a]
        return real_init(T, energies, k1, k2, a, seed)

    def late_restarts_hang(*args):
        if current[0] > 12 and os.getpid() != caller:
            time.sleep(60)
        return real_run(*args)

    monkeypatch.setattr(solver, "_attempt_init", init_recording)
    monkeypatch.setattr(solver, "_run_attempt", late_restarts_hang)
    forks = _fan_out(monkeypatch)
    start = time.perf_counter()
    fanned = recover(ens, b, opts)
    assert time.perf_counter() - start < 10
    assert len(forks) == _siblings_for(opts.restarts)
    assert no_children()
    assert fanned.attempts == serial.attempts == 13
    assert fanned.attempt_log == serial.attempt_log
    assert fanned.u_hat.tobytes() == serial.u_hat.tobytes()
    assert fanned.v_hat.tobytes() == serial.v_hat.tobytes()


def test_a_sibling_that_dies_without_a_result_is_named_and_nothing_hangs(monkeypatch):
    ens, _, b, _ = plant_instance(32, 8, 3, 3, seed=119)
    caller, real = os.getpid(), solver._run_attempt

    def sibling_dies(*args):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.05)  # leaves restarts for the sibling to claim
        return real(*args)

    forks = _fan_out(monkeypatch)
    monkeypatch.setattr(solver, "_run_attempt", sibling_dies)
    if _siblings_for(14) == 0:
        pytest.skip("one usable CPU: recover starts no sibling")
    with pytest.raises(ChildProcessError, match=r"worker process \d+ ended \(exit status 3\)"):
        recover(ens, b, SolveOptions(s1=3, s2=3, seed=119))
    assert len(forks) == _siblings_for(14)
    assert no_children()


def test_a_solve_inside_a_fan_out_keeps_its_restarts_in_process(monkeypatch):
    # as in a sweep run with two or more workers, both in a sibling that
    # computes a cell and in the caller that computes one: fan-outs never nest
    ens, _, b, _ = plant_instance(32, 8, 3, 3, seed=119)
    opts = SolveOptions(s1=3, s2=3, seed=119)
    forks, caller = _fan_out(monkeypatch), os.getpid()

    def solve(item):
        if os.getpid() == caller:
            time.sleep(0.5)  # leaves the other item to the sibling
        before = len(forks)
        res = recover(ens, b, opts)
        return res, len(forks) - before, os.getpid()

    inside = list(util.fan_out(solve, [0, 1], 2))
    assert len(forks) == 1
    assert no_children()
    monkeypatch.setattr(solver, "_FAN_OUT_S", math.inf)
    serial = recover(ens, b, opts)
    assert len({pid for _, _, pid in inside}) == 2
    for in_fan_out, nested_forks, _ in inside:
        assert nested_forks == 0
        assert in_fan_out.attempts == 15
        assert in_fan_out.attempt_log == serial.attempt_log
        assert in_fan_out.u_hat.tobytes() == serial.u_hat.tobytes()


def _first_attempt_reads(monkeypatch, first_s: float) -> list:
    """Makes attempt 0 of every later solve read first_s seconds, with
    cpu_processes() at 2; returns the list of the process counts recover
    passes to fan_out, whose stand-in runs in process."""
    clock = itertools.cycle((0.0, first_s))
    sizes = []

    def recording(fn, items, workers):
        sizes.append(workers)
        return map(fn, items)

    monkeypatch.setattr(solver, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(solver, "cpu_processes", lambda: 2)
    monkeypatch.setattr(solver, "fan_out", recording)
    return sizes


def test_a_small_solve_keeps_its_restarts_in_process(monkeypatch):
    # 14 restarts estimated at 1 ms each stay below _FAN_OUT_S = 20 ms
    sizes = _first_attempt_reads(monkeypatch, 0.001)
    ens, _, b, _ = plant_instance(16, 4, 1, 1, seed=4)
    assert recover(ens, b, SolveOptions(s1=1, s2=1, seed=4)).attempts == 15
    assert sizes == [1]


def test_a_solve_whose_restarts_reach_the_cut_fans_them_out(monkeypatch):
    # 14 restarts estimated at 2 ms each reach _FAN_OUT_S = 20 ms
    sizes = _first_attempt_reads(monkeypatch, 0.002)
    ens, _, b, _ = plant_instance(16, 4, 1, 1, seed=4)
    assert recover(ens, b, SolveOptions(s1=1, s2=1, seed=4)).attempts == 15
    assert sizes == [2]


# -- scoring -------------------------------------------------------------------


def test_success_metric_matches_dense_error():
    rng = rng_for(110, "sm")
    p_hat = LiftedPoint(complex_gaussian(rng, 8), complex_gaussian(rng, 8))
    p = LiftedPoint(complex_gaussian(rng, 8), complex_gaussian(rng, 8))
    ens, _, b, _ = plant_instance(8, 4, 2, 2, seed=111)
    rel, _ = success_metric(p_hat, p, b, 0.0, ens)
    dense = np.linalg.norm(p_hat.dense() - p.dense()) / np.linalg.norm(p.dense())
    assert rel == pytest.approx(dense, rel=1e-10)


def test_success_metric_ignores_reciprocal_scaling():
    rng = rng_for(112, "sm")
    u, v = complex_gaussian(rng, 8), complex_gaussian(rng, 8)
    p = LiftedPoint(u, v)
    scaled = LiftedPoint(3.7j * u, v / 3.7j)
    ens, _, b, _ = plant_instance(8, 4, 2, 2, seed=113)
    rel, _ = success_metric(scaled, p, b, 0.0, ens)
    assert rel <= 1e-12


def test_success_metric_noise_ratio_and_validation():
    ens, truth, b, z_norm = plant_instance(16, 8, 2, 2, seed=114,
                                           noise_level=0.1)
    _, ratio = success_metric(truth, truth, b, z_norm, ens)
    assert ratio == pytest.approx(0.1, rel=1e-12)
    zero = LiftedPoint(np.zeros(16), np.zeros(16))
    with pytest.raises(ValueError):
        success_metric(truth, zero, b, z_norm, ens)
    # with identity dictionaries e0 conv e0 = e0, which omega = [1, 2] misses
    ident = Ensemble(n=4, m=2, omega=np.array([1, 2]), phi_kind="identity",
                     psi_kind="identity")
    e0 = LiftedPoint(np.eye(4)[0], np.eye(4)[0])
    with pytest.raises(ZeroVectorError, match="planted point has zero measurement"):
        success_metric(e0, e0, np.zeros(2), 0.0, ident)
