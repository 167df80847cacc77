"""Monte Carlo estimators: replay contracts, oracles, and determinism."""

import hashlib
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    adjoint_apply,
    dft_matrix,
    estimate_rip_matrix,
    exact_rip_small,
    isotropy_check_ref,
    polarization_check,
    recorded_under,
    rop_form_samples,
)
import liftconv.concentration as concentration
from liftconv.concentration import (
    EstimateReport,
    estimate_rap,
    estimate_rip,
    estimate_rop,
    isotropy_check,
)
from liftconv.measurement import (
    Ensemble,
    LiftedPoint,
    _gaussian_dictionary,
    forward,
    lifted_inner,
    sample_omega,
)
from liftconv.models import ModelSpec, OrthogonalizationError
from liftconv.solver import SolveOptions, plant_instance, recover, success_metric
from liftconv.util import ZeroVectorError, complex_gaussian, derive_seed, rng_for

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

@pytest.fixture(scope="module")
def ens():
    return Ensemble.generate(24, 12, seed=60)


SPEC_U = ModelSpec(24, 2, side="left")
SPEC_V = ModelSpec(24, 3, mu=4.0, side="right")


# -- report structure and replay ----------------------------------------------


def test_rip_report_shape_and_quantile_order(ens):
    rep = estimate_rip(ens, SPEC_U, SPEC_V, 60, seed=61)
    assert rep.trials == 60
    assert rep.deviations.shape == (60,)
    assert rep.quantiles[0.5] <= rep.quantiles[0.9] <= rep.quantiles[0.99]
    assert rep.quantiles[0.99] <= rep.delta_hat == rep.deviations.max()


def test_rip_witness_replays_its_deviation(ens):
    rep = estimate_rip(ens, SPEC_U, SPEC_V, 60, seed=61)
    w = rep.witness
    p = LiftedPoint(w["u"], w["v"])
    dev = abs(np.linalg.norm(forward(ens, p)) ** 2 - p.norm_f**2) / p.norm_f**2
    assert dev == pytest.approx(rep.delta_hat, rel=1e-12)
    assert rep.deviations[w["trial"]] == rep.delta_hat


def test_estimators_are_deterministic(ens):
    a = estimate_rip(ens, SPEC_U, SPEC_V, 30, seed=62)
    b = estimate_rip(ens, SPEC_U, SPEC_V, 30, seed=62)
    assert np.array_equal(a.deviations, b.deviations)


def test_longer_run_extends_shorter_one(ens):
    # per-trial streams: trial t's draw does not depend on trial count
    short = estimate_rip(ens, SPEC_U, SPEC_V, 30, seed=63)
    long = estimate_rip(ens, SPEC_U, SPEC_V, 60, seed=63)
    assert np.array_equal(long.deviations[:30], short.deviations)
    assert long.delta_hat >= short.delta_hat


def test_trial_count_must_be_positive(ens):
    for fn in (estimate_rip, estimate_rap, estimate_rop):
        with pytest.raises(ValueError):
            fn(ens, SPEC_U, SPEC_V, 0, seed=0)


# -- the angle estimator ------------------------------------------------------


def test_rap_witness_replays(ens):
    rep = estimate_rap(ens, SPEC_U, SPEC_V, 40, seed=65)
    w = rep.witness
    p = LiftedPoint(w["u"], w["v"])
    p_hat = LiftedPoint(w["u_hat"], w["v_hat"])
    val = np.vdot(forward(ens, p_hat), forward(ens, p)) - lifted_inner(p_hat, p)
    assert abs(val) / (p.norm_f * p_hat.norm_f) == pytest.approx(
        rep.delta_hat, rel=1e-12)


# -- the orthogonal estimator -------------------------------------------------


def test_rop_both_witness_is_orthogonal_on_both_sides(ens):
    rep = estimate_rop(ens, SPEC_U, SPEC_V, 40, seed=66, orthogonality="both")
    w = rep.witness
    assert abs(np.vdot(w["u"], w["u_hat"])) <= 1e-9
    assert abs(np.vdot(w["v"], w["v_hat"])) <= 1e-9


def test_rop_either_alternates_sides(ens):
    rep = estimate_rop(ens, SPEC_U, SPEC_V, 2, seed=67, orthogonality="either")
    assert rep.trials == 2  # parity schedule exercised both sides


def test_rop_witness_replays(ens):
    rep = estimate_rop(ens, SPEC_U, SPEC_V, 40, seed=68)
    w = rep.witness
    p = LiftedPoint(w["u"], w["v"])
    p_hat = LiftedPoint(w["u_hat"], w["v_hat"])
    dev = abs(np.vdot(forward(ens, p_hat), forward(ens, p)))
    dev /= p.norm_f * p_hat.norm_f
    assert dev == pytest.approx(rep.delta_hat, rel=1e-12)


def test_rop_trial_that_spends_its_draws_raises():
    # at n = 1 every partner is parallel to its anchor: trial 0 spends all 8 draws
    with pytest.raises(OrthogonalizationError, match="failed 8 times in trial 0"):
        estimate_rop(Ensemble.generate(1, 1), ModelSpec(1, 1), ModelSpec(1, 1), 3)


def test_rop_rejects_unknown_orthogonality(ens):
    with pytest.raises(ValueError):
        estimate_rop(ens, SPEC_U, SPEC_V, 5, orthogonality="neither")


def test_rop_decoupled_is_deterministic(ens):
    a = estimate_rop(ens, SPEC_U, SPEC_V, 10, seed=69, decoupled=True)
    b = estimate_rop(ens, SPEC_U, SPEC_V, 10, seed=69, decoupled=True)
    assert np.array_equal(a.deviations, b.deviations)


# 40-trial estimate_rop runs at the C9 point (n=64, m=32, s=4, mu2=4):
# delta_hat and the q50/q90/q99 quantiles as float.hex, the witness
# trial and the first 16 hex digits of the sha256 of its u, v, u_hat,
# v_hat bytes. Recorded from the implementation that tested flatness in
# every round of orthogonalize_pair; a cap mu2 = s cannot bind, so
# skipping that work must leave every byte as it was.
_ROP_C9_RECORD = {
    (901, "both"): ("0x1.7e0aa2e420121p-2", ("0x1.151bf7954bb38p-3",
                    "0x1.36d731e3839bbp-2", "0x1.7b7f3f5773382p-2"),
                    35, "46b5d5ec3c88279d"),
    (901, "either"): ("0x1.7e0aa2e420121p-2", ("0x1.3c764d86d5fc6p-3",
                      "0x1.36d731e3839bcp-2", "0x1.7b7f3f5773382p-2"),
                      35, "46b5d5ec3c88279d"),
    (902, "both"): ("0x1.48ecac481bbc5p-2", ("0x1.07230f10ab26ep-3",
                    "0x1.e595a934b4524p-3", "0x1.34a53124918dep-2"),
                    21, "aa25a6d47df978ed"),
    (902, "either"): ("0x1.48ecac481bbc5p-2", ("0x1.1e259b0c53eafp-3",
                      "0x1.e5cd1faa0e5f2p-3", "0x1.285cdb266cc50p-2"),
                      21, "aa25a6d47df978ed"),
    (903, "both"): ("0x1.fae96d1541e88p-2", ("0x1.37907c1aac6bcp-3",
                    "0x1.1e486df985a2cp-2", "0x1.bbaea2d8a3885p-2"),
                    33, "7de83bae42a0aa8e"),
    (903, "either"): ("0x1.fae96d1541e88p-2", ("0x1.288cb7f64c79ep-3",
                      "0x1.1e486df985a2bp-2", "0x1.bbaea2d8a3885p-2"),
                      33, "7de83bae42a0aa8e"),
}


def _report_bytes(rep):
    """(delta_hat, (q50, q90, q99)) as float.hex, the witness trial and a
    sha256 prefix of the witness's u, v (and u_hat, v_hat) bytes."""
    w = rep.witness
    digest = hashlib.sha256(b"".join(
        np.ascontiguousarray(w[k]).tobytes()
        for k in ("u", "v", "u_hat", "v_hat") if k in w
    )).hexdigest()[:16]
    return (rep.delta_hat.hex(),
            tuple(rep.quantiles[q].hex() for q in (0.5, 0.9, 0.99)),
            w["trial"], digest)


@pytest.mark.parametrize("seed, orthogonality", sorted(_ROP_C9_RECORD))
def test_rop_at_c9_matches_its_recorded_bytes(seed, orthogonality):
    ens = Ensemble.generate(64, 32, seed=derive_seed(900, "ens"))
    rep = estimate_rop(ens, ModelSpec(64, 4, side="left"),
                       ModelSpec(64, 4, mu=4.0, side="right"), 40, seed=seed,
                       orthogonality=orthogonality)
    assert _report_bytes(rep) == _ROP_C9_RECORD[seed, orthogonality], recorded_under()
    assert rep.resamples == 0


# estimate_rap at C9 (n=64, m=32, s=4, mu2=4), at C8 (n=128, m=32, s=2,
# mu2=4) and at the flat spec mu2=3.5 < s, and estimate_rip at C8,
# recorded as _report_bytes from the implementation that called
# np.linalg.norm and drew complex Gaussians in two calls. The trial
# path's norms and draws must evaluate exactly what those did. The flat
# spec's right draws above the cap are moved inside it by the flat
# descent; its record is that of the descent. A case is (estimator, n, ensemble
# seed, s, mu2, trials, seed), with m = 32.
_C8_SEED = derive_seed(800, "ens", 32)
_C9_SEED = derive_seed(900, "ens")
_ESTIMATE_CASES = {
    "rap-c9": (estimate_rap, 64, _C9_SEED, 4, 4.0, 40, 911),
    "rap-c8": (estimate_rap, 128, _C8_SEED, 2, 4.0, 40, 811),
    "rap-flat": (estimate_rap, 64, _C9_SEED, 4, 3.5, 10, 921),
    "rip-c8": (estimate_rip, 128, _C8_SEED, 2, 4.0, 40, 812),
}
_ESTIMATE_RECORD = {
    "rap-c9": ("0x1.377e6682daa46p-2", ("0x1.0735eb9b9dbb9p-3",
               "0x1.e016a8b78a7c0p-3", "0x1.351cdf69f2921p-2"),
               23, "215b517ae289f448"),
    "rap-c8": ("0x1.3903c3f3f8baap-2", ("0x1.06fcc36d84b20p-3",
               "0x1.e84604f372948p-3", "0x1.299f198f84d12p-2"),
               39, "87cc7433bde7eee3"),
    "rap-flat": ("0x1.f777df357fa14p-3", ("0x1.3854cf8a46feep-3",
                 "0x1.a902211bcc92ep-3", "0x1.ef9f4c32edb97p-3"),
                 1, "9b489ff4883b8bf0"),
    "rip-c8": ("0x1.bb36315bb2e35p-2", ("0x1.3ffa9c7b9fc01p-3",
               "0x1.2542ecf10829dp-2", "0x1.abb680cb145a1p-2"),
               3, "35a5a5a8a05a3de9"),
}


@pytest.mark.parametrize("label", sorted(_ESTIMATE_RECORD))
def test_estimates_match_their_recorded_bytes(label):
    estimator, n, ens_seed, s, mu2, trials, seed = _ESTIMATE_CASES[label]
    ens = Ensemble.generate(n, 32, seed=ens_seed)
    rep = estimator(ens, ModelSpec(n, s, side="left"),
                    ModelSpec(n, s, mu=mu2, side="right"), trials, seed=seed)
    assert _report_bytes(rep) == _ESTIMATE_RECORD[label], recorded_under()


# -- explicit-matrix estimator and its exact oracle ----------------------------


def test_matrix_estimator_sees_exact_isometry():
    rep = estimate_rip_matrix(np.eye(8), ModelSpec(8, 2), 50, seed=70)
    assert rep.delta_hat == 0.0


def test_matrix_estimator_exact_inflation():
    # ||2x||^2 = 4||x||^2, so every deviation is exactly 3
    rep = estimate_rip_matrix(2.0 * np.eye(8), ModelSpec(8, 2), 50, seed=71)
    assert np.allclose(rep.deviations, 3.0, atol=1e-12)


def test_matrix_estimate_never_exceeds_enumerated_constant():
    A = complex_gaussian(rng_for(72, "A"), (8, 10)) / np.sqrt(8)
    exact = exact_rip_small(A, 2)
    rep = estimate_rip_matrix(A, ModelSpec(10, 2), 500, seed=73)
    assert rep.delta_hat <= exact + 1e-12
    x = rep.witness["x"]
    nsq = np.linalg.norm(x) ** 2
    replay = abs(np.linalg.norm(A @ x) ** 2 - nsq) / nsq
    assert replay == pytest.approx(rep.witness["deviation"], rel=1e-12)


def test_matrix_estimator_validates():
    with pytest.raises(ValueError):
        estimate_rip_matrix(np.eye(8), ModelSpec(9, 2), 5)
    with pytest.raises(ValueError):
        estimate_rip_matrix(np.eye(8), ModelSpec(8, 2), 0)


def test_exact_rip_small_unitary_is_zero():
    assert exact_rip_small(dft_matrix(8), 2) <= 1e-12


def test_exact_rip_small_diagonal_case():
    A = np.diag([1.0, 1.0, 1.0, np.sqrt(1.5)])
    assert exact_rip_small(A, 1) == pytest.approx(0.5, abs=1e-12)
    assert exact_rip_small(A, 2) == pytest.approx(0.5, abs=1e-12)


def test_exact_rip_small_guards():
    with pytest.raises(ValueError):
        exact_rip_small(np.eye(17), 2)
    with pytest.raises(ValueError):
        exact_rip_small(np.eye(8), 5)
    with pytest.raises(ValueError):
        exact_rip_small(np.ones(8), 1)


# -- isotropy and polarization -------------------------------------------------


def test_isotropy_error_is_small_at_moderate_draws():
    rng = rng_for(74, "iso")
    x = LiftedPoint(complex_gaussian(rng, 4), complex_gaussian(rng, 4))
    err = isotropy_check(4, 4, x, 3000, seed=75, fixed_kind="identity",
                         average_over="phi")
    assert 0 <= err < 0.25


def test_isotropy_check_is_deterministic():
    rng = rng_for(76, "iso")
    x = LiftedPoint(complex_gaussian(rng, 6), complex_gaussian(rng, 6))
    a = isotropy_check(6, 3, x, 50, seed=77, average_over="psi")
    b = isotropy_check(6, 3, x, 50, seed=77, average_over="psi")
    assert a == b


@pytest.mark.parametrize("omega_mode", ["without_replacement", "iid_uniform"])
@pytest.mark.parametrize("fixed_kind", ["gaussian", "identity"])
@pytest.mark.parametrize("average_over", ["phi", "psi"])
def test_isotropy_check_matches_per_draw_dense_adjoint(average_over, fixed_kind,
                                                        omega_mode):
    # replay the draw protocol through forward and the dense adjoint_apply,
    # one Ensemble per draw, and compare the returned error
    n, m, draws, seed = 12, 7, 40, 80
    rng = rng_for(81, "iso")
    x = LiftedPoint(complex_gaussian(rng, n), complex_gaussian(rng, n))
    setup = rng_for(seed, "setup")
    omega = sample_omega(n, m, omega_mode, setup)
    fixed = None if fixed_kind == "identity" else _gaussian_dictionary(n, setup)
    kinds = (("gaussian", fixed_kind) if average_over == "phi"
             else (fixed_kind, "gaussian"))
    acc = np.zeros((n, n), dtype=complex)
    for k in range(draws):
        fresh = _gaussian_dictionary(n, rng_for(seed, "draw", k))
        phi, psi = (fresh, fixed) if average_over == "phi" else (fixed, fresh)
        ens = Ensemble(n=n, m=m, omega=omega, phi_kind=kinds[0],
                       psi_kind=kinds[1], phi=phi, psi=psi)
        acc += adjoint_apply(ens, forward(ens, x))
    gram = np.eye(n) if fixed is None else fixed.conj().T @ fixed
    target = x.dense() @ gram.T if average_over == "phi" else gram @ x.dense()
    ref = np.linalg.norm(acc / draws - target) / np.linalg.norm(target)
    err = isotropy_check(n, m, x, draws, seed=seed, fixed_kind=fixed_kind,
                         average_over=average_over, omega_mode=omega_mode)
    assert err == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("omega_mode", ["without_replacement", "iid_uniform"])
@pytest.mark.parametrize("fixed_kind", ["gaussian", "identity"])
@pytest.mark.parametrize("average_over", ["phi", "psi"])
@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_isotropy_blocks_are_the_per_draw_loop_bit_for_bit(n, average_over, fixed_kind,
                                                           omega_mode):
    # one draw, a block short by one, a whole block and one over; at n = 64
    # a block holds 2 draws, at n = 4 it holds 512, and at n = 128, whose
    # one draw is beyond 2^13 entries, it holds 1
    block = max(1, concentration._ISOTROPY_BLOCK // n**2)
    rng = rng_for(82, "iso-blocks", n)
    x = LiftedPoint(complex_gaussian(rng, n), complex_gaussian(rng, n))
    kwargs = dict(seed=83 + n, fixed_kind=fixed_kind, average_over=average_over,
                  omega_mode=omega_mode)
    for draws in sorted({1, block - 1, block, block + 1} - {0}):
        got = isotropy_check(n, n // 2, x, draws, **kwargs)
        assert got.hex() == isotropy_check_ref(n, n // 2, x, draws, **kwargs).hex(), draws


# isotropy_check(n, n // 2, x, draws) of a fixed point, recorded when each
# block was measured by hand-written products; draws crosses a block boundary
# at every n. The per-draw oracle shares the operator with the check, so these
# values are what would catch a shift in both.
_ISOTROPY_DRAWS = {4: 513, 16: 33, 64: 3}
_ISOTROPY_RECORD = {
    (4, "phi", "gaussian", "without_replacement"): "0x1.eb3bd4e2a9d93p-4",
    (4, "phi", "identity", "without_replacement"): "0x1.6c38a255e6a10p-4",
    (4, "psi", "gaussian", "without_replacement"): "0x1.3ea9ddc5fd1f8p-4",
    (4, "psi", "identity", "without_replacement"): "0x1.b2d95aa27b7c3p-4",
    (16, "phi", "gaussian", "without_replacement"): "0x1.689c45458688ep-1",
    (16, "phi", "identity", "without_replacement"): "0x1.c56ce083a7208p-1",
    (16, "psi", "gaussian", "without_replacement"): "0x1.8886e8fe0fa0dp-1",
    (16, "psi", "identity", "without_replacement"): "0x1.e7a7279532276p-1",
    (64, "phi", "gaussian", "without_replacement"): "0x1.6a769e738cbcbp+2",
    (64, "phi", "identity", "without_replacement"): "0x1.8a9a303b41a3cp+2",
    (64, "psi", "gaussian", "without_replacement"): "0x1.0d9bfbe8be663p+2",
    (64, "psi", "identity", "without_replacement"): "0x1.94f5d19a1222ep+2",
    (16, "psi", "gaussian", "iid_uniform"): "0x1.cdc41fa84beb1p-1",
}


@pytest.mark.parametrize("n, average_over, fixed_kind, omega_mode", sorted(_ISOTROPY_RECORD))
def test_isotropy_check_matches_its_recorded_values(n, average_over, fixed_kind, omega_mode):
    rng = rng_for(84, "iso-record", n)
    x = LiftedPoint(complex_gaussian(rng, n), complex_gaussian(rng, n))
    got = isotropy_check(n, n // 2, x, _ISOTROPY_DRAWS[n], seed=85 + n, fixed_kind=fixed_kind,
                         average_over=average_over, omega_mode=omega_mode)
    assert got.hex() == _ISOTROPY_RECORD[n, average_over, fixed_kind, omega_mode], recorded_under()


def test_isotropy_check_validates():
    x = LiftedPoint(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        isotropy_check(4, 2, x, 10, average_over="omega")
    with pytest.raises(ValueError):
        isotropy_check(4, 2, x, 0)


@pytest.mark.parametrize("u, v", [(np.zeros(8), np.ones(8)), (np.ones(8), np.zeros(8))])
def test_isotropy_check_rejects_the_zero_point(u, v):
    # its target is zero, so the relative error is undefined
    with pytest.raises(ZeroVectorError):
        isotropy_check(8, 4, LiftedPoint(u, v), 5)


def test_polarization_residual_vanishes():
    rng = rng_for(78, "pol")
    for _ in range(20):
        m1 = complex_gaussian(rng, (6, 6))
        m2 = complex_gaussian(rng, (6, 6))
        xi = complex_gaussian(rng, 6)
        scale = np.linalg.norm(m1 @ xi) * np.linalg.norm(m2 @ xi)
        assert polarization_check(m1, m2, xi) <= 1e-12 * max(scale, 1.0)


# -- cross-form sampling --------------------------------------------------------


def test_rop_form_samples_contract():
    u, v = np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)
    u_hat, v_hat = np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)
    u[0], v[1], u_hat[2], v_hat[3] = 1.0, 1.0, 1.0, 1.0
    vals = rop_form_samples(8, 4, (u, v, u_hat, v_hat), 50, seed=79)
    assert vals.shape == (50,) and vals.dtype == complex
    again = rop_form_samples(8, 4, (u, v, u_hat, v_hat), 50, seed=79)
    assert np.array_equal(vals, again)


def test_rop_form_coupled_and_decoupled_share_location():
    # for factor-wise orthogonal tuples both variants are centered at zero
    u, v = np.zeros(12, dtype=complex), np.zeros(12, dtype=complex)
    u_hat, v_hat = np.zeros(12, dtype=complex), np.zeros(12, dtype=complex)
    u[0], v[1], u_hat[2], v_hat[3] = 1.0, 1.0, 1.0, 1.0
    coupled = rop_form_samples(12, 6, (u, v, u_hat, v_hat), 400, seed=80)
    split = rop_form_samples(12, 6, (u, v, u_hat, v_hat), 400, seed=80,
                             decoupled=True)
    for vals in (coupled, split):
        spread = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals)) <= 5 * spread


# -- the benchmark's gates -------------------------------------------------------


def test_estimate_probe_matches_the_benchmark_fingerprint(monkeypatch):
    # perfbench's estimate workload counts a probe value that drifts from
    # its fingerprint past REL_TOL as a failed operation; the probe is
    # read-only, so a sampler change that would fail it fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    recorded = json.loads((PERFBENCH / "fingerprint.json").read_text())["estimate"]
    got = workloads.Estimate({"estimate": recorded}, "").probe()
    assert set(got) == set(recorded)
    for label, value in got.items():
        assert workloads.rel_close(value, recorded[label], workloads.REL_TOL), label


def test_recover_slice_matches_the_benchmark_fingerprint(monkeypatch):
    # perfbench's recover workload counts a solve whose (hit, attempts)
    # differs from its fingerprint as a failed operation; tier-1 pins the
    # bytes of only three of the 30 slice instances, so a solver change
    # that would fail the benchmark's gate on any of them fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    w = importlib.import_module("workloads")
    recorded = json.loads((PERFBENCH / "fingerprint.json").read_text())["recover"]
    differ = []
    for m in w.RECOVER_MS:
        for t in range(w.RECOVER_TRIALS):
            seed = w.RECOVER_SEED0 + t
            ens, truth, b, _ = plant_instance(w.RECOVER_N, m, w.RECOVER_S, w.RECOVER_S, seed=seed,
                                              mu1=w.RECOVER_MU, mu2=w.RECOVER_MU)
            res = recover(ens, b, SolveOptions(s1=w.RECOVER_S, s2=w.RECOVER_S, seed=seed))
            rel, _ = success_metric(res.point, truth, b, 0.0, ens)
            got, want = (bool(rel <= w.SUCCESS_REL), res.attempts), tuple(recorded[str(m)][t])
            if got != want:
                differ.append(f"m={m} t={t}: (hit, attempts)={got}, recorded {want}")
    assert not differ, "; ".join(differ) + "; " + recorded_under()
