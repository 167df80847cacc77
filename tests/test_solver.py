"""Recovery solver: planted instances, invariances, and failure modes."""

import hashlib

import numpy as np
import pytest

import liftconv.solver as solver
from liftconv.measurement import (
    Ensemble,
    FactoredOperator,
    LiftedPoint,
    adjoint_apply,
    forward,
    lifted_dist,
    partial_forward,
)
from liftconv.models import ModelSpec, hard_threshold, spectral_flatness
from liftconv.solver import (
    SolveOptions,
    SolveResult,
    SolverBreakdownError,
    plant_instance,
    recover,
    spectral_init,
    success_metric,
    _adjoint,
    _leading_pair_dense,
    _refit,
    _screened_pair,
    _sparsity_schedule,
)
from liftconv.util import complex_gaussian, rng_for, unit


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


def test_spectral_init_contract():
    ens, _, b, _ = plant_instance(24, 12, 2, 3, seed=97)
    init = spectral_init(ens, b, 2, 3)
    assert np.count_nonzero(init.u) <= 2
    assert np.count_nonzero(init.v) <= 3
    assert np.linalg.norm(init.u) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(init.v) == pytest.approx(1.0, abs=1e-12)


def test_spectral_init_dense_path_beyond_n_256():
    ens = Ensemble.generate(300, 8, phi_kind="identity", psi_kind="identity",
                            seed=98)
    b = complex_gaussian(rng_for(99, "b"), 8)
    init = spectral_init(ens, b, 3, 3)
    assert np.count_nonzero(init.u) <= 3
    assert np.linalg.norm(init.v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rng_seed,weighted", [(None, True), (117, True), (118, False)])
def test_screened_pair_block_svd_matches_zero_padded_svd(rng_seed, weighted):
    # deterministic, energy-weighted and uniform screening
    ens, _, b, _ = plant_instance(32, 16, 3, 3, seed=116)
    T = adjoint_apply(ens, b)
    rng = None if rng_seed is None else rng_for(rng_seed, "screen")
    p = _screened_pair(T, 6, 5, rng, weighted)
    rows, cols = np.nonzero(p.u)[0], np.nonzero(p.v)[0]
    assert (rows.size, cols.size) == (6, 5)
    if rng_seed is None:
        assert set(rows) == set(np.argsort(-np.linalg.norm(T, axis=1))[:6])
    # the leading pair of the k1 x k2 block zero-padded to n x n
    S = np.zeros_like(T)
    S[np.ix_(rows, cols)] = T[np.ix_(rows, cols)]
    U, _, Vh = np.linalg.svd(S)
    ref = np.outer(unit(U[:, 0]), unit(Vh[0, :]))
    assert np.linalg.norm(np.outer(p.u, p.v) - ref) <= 1e-12


def test_restart_pool_explores_distinct_supports_beyond_n_256(monkeypatch):
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


def test_spectral_init_rejects_zero_data():
    ens = Ensemble.generate(16, 8, seed=100)
    with pytest.raises(ValueError):
        spectral_init(ens, np.zeros(8), 2, 2)


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
                   phi_kind="identity", psi_kind="identity", seed=0)
    rng = rng_for(124, "rank-deficient")
    WH, G = FactoredOperator.of(ens).frozen("left", complex_gaussian(rng, n))
    b = complex_gaussian(rng, m)
    J = np.array([1, 4, 6, 8, 11])
    assert np.linalg.matrix_rank(WH @ G[:, J]) == 4
    w, Aw = _refit(WH, G, b, J)
    sol, fit = _min_norm_fit(WH, G, b, J)
    assert _close(w[J], sol) and _close(Aw, fit)


def test_recover_refits_without_lstsq_on_a_c10_instance(monkeypatch):
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
    # the final level still converges to outer_tol and meets the residual stop
    _assert_level_stopped_at(levels[-1], opts.outer_tol)
    assert rec.level_stops == ["warm", "warm", "outer_tol"]
    assert res.converged and rec.stop == "resid_stop"
    assert res.residual_norm <= solver._RESID_STOP * np.linalg.norm(b)
    assert rec.resid_rel == res.residual_norm / np.linalg.norm(b)
    assert success_metric(res.point, truth, b, 0.0, ens)[0] <= 1e-6


def test_a_failed_basin_stops_at_warm_precision(monkeypatch):
    # m = 16 is below the C10 phase transition: every attempt fails, far
    # above _POLISH_RESID * ||b||, so no final level polishes to outer_tol
    ens, _, b, _ = plant_instance(128, 16, 3, 3, seed=7000, mu1=3.0, mu2=3.0)
    opts = SolveOptions(s1=3, s2=3, seed=7000)
    res, levels = _relative_steps_per_level(monkeypatch, ens, b, opts)
    assert res.attempts == 15
    assert all(rec.resid_rel >= 0.41 for rec in res.attempt_log)
    assert all(rec.level_stops[-1] in ("warm", "cap") for rec in res.attempt_log)
    # attempt 0's final level stops at its first step below _WARM_TOL,
    # after 11 iterations where polishing to outer_tol ran 25
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


def test_a_loose_outer_tol_also_governs_the_relaxed_levels(monkeypatch):
    # with outer_tol above _WARM_TOL every level stops at outer_tol
    ens, _, b, _ = plant_instance(128, 64, 3, 3, seed=7000, mu1=3.0, mu2=3.0)
    opts = SolveOptions(s1=3, s2=3, seed=7000, outer_tol=1e-3, restarts=0)
    res, levels = _relative_steps_per_level(monkeypatch, ens, b, opts)
    assert len(levels) == 3
    for level_steps in levels:
        _assert_level_stopped_at(level_steps, 1e-3)


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
            raise SolverBreakdownError("right factor collapsed", init)
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


# -- recovery ------------------------------------------------------------------


def test_recover_solves_easy_instance():
    ens, truth, b, _ = plant_instance(32, 24, 2, 2, seed=101)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, seed=101))
    rel, _ = success_metric(res.point, truth, b, 0.0, ens)
    assert rel <= 1e-6
    assert res.residual_norm <= 1e-6 * np.linalg.norm(b)
    assert res.iterations >= 1 and res.attempts >= 1


# Slice instances t = 0 (n=128, s=3, mu=3, seed 7000) at m = 16, a failing
# basin that runs all 15 attempts, and m = 64, solved at attempt 0:
# sha256 prefixes of the factor bytes and of the attempt log (every
# field, resid_rel as float.hex), the residual as float.hex, iterations
# and half-steps. Recorded from the half-step path that called
# np.linalg.norm, np.argsort/np.sort and np.flatnonzero.
_SLICE_RECORD = {
    16: ("ac48ea1eb02c795d", "f3accc21ab38d60c", "0x1.a7fa13e0bc6b8p-2", 57, 1018),
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
    assert got == _SLICE_RECORD[m]
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


def test_recover_builds_the_adjoint_image_once(monkeypatch):
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


def test_breakdown_in_one_attempt_does_not_abort_the_solve(monkeypatch):
    real = solver._run_attempt
    calls = []

    def broken_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise SolverBreakdownError("left factor collapsed", args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_run_attempt", broken_first)
    ens, truth, b, _ = plant_instance(32, 24, 2, 2, seed=101)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, seed=101))
    assert res.attempts >= 2
    assert success_metric(res.point, truth, b, 0.0, ens)[0] <= 1e-6

    def always_broken(*args, **kwargs):
        calls.append(1)
        raise SolverBreakdownError(f"breakdown {len(calls)}", args[3])

    calls.clear()
    monkeypatch.setattr(solver, "_run_attempt", always_broken)
    with pytest.raises(SolverBreakdownError, match="breakdown 3"):
        recover(ens, b, SolveOptions(s1=2, s2=2, seed=101, restarts=2))
    assert len(calls) == 3


def test_attempts_equal_up_to_rounding_keep_the_earliest(monkeypatch):
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


def test_enforce_flatness_with_vacuous_caps_preserves_recovery():
    # caps at the ambient dimension make the image flattening a no-op,
    # so the post-pass reduces to support refits and success survives
    ens, truth, b, _ = plant_instance(32, 24, 3, 3, seed=109, mu1=3.0, mu2=3.0)
    opts = SolveOptions(s1=3, s2=3, seed=109, mu1=32.0, mu2=32.0)
    res = recover(ens, b, opts)
    rel, _ = success_metric(res.point, truth, b, 0.0, ens)
    assert rel <= 1e-6


def test_enforce_flatness_tight_caps_reshape_the_estimate():
    # tight caps constrain the dictionary images, which the planted
    # coefficient model does not satisfy; the pass must still return a
    # finite, deterministic result that actually moved the estimate
    ens, truth, b, _ = plant_instance(32, 24, 3, 3, seed=109, mu1=3.0, mu2=3.0)
    base = recover(ens, b, SolveOptions(s1=3, s2=3, seed=109))
    opts = SolveOptions(s1=3, s2=3, seed=109, mu1=2.0, mu2=2.0)
    res = recover(ens, b, opts)
    again = recover(ens, b, opts)
    assert np.isfinite(res.residual_norm)
    assert np.array_equal(res.u_hat, again.u_hat)
    assert lifted_dist(res.point, base.point) > 0


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


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(s1=0, s2=1)
    with pytest.raises(ValueError):
        SolveOptions(s1=1, s2=1, restarts=-1)
    with pytest.raises(ValueError):
        SolveOptions(s1=1, s2=1, outer_tol=0.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SolveOptions(s1=1, s2=1, outer_tol=tol)
    with pytest.raises(ValueError):
        SolveOptions(s1=1, s2=1, mu2=float("nan"))


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

