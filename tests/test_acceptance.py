"""End-to-end acceptance checks with pinned tolerances.

One test per criterion, ordered. Every test prints a single
`[acceptance] ...` line with its measured margin (visible under
`pytest -s`); the pytest verdict per test is the pass/fail record.
Statistical checks pin their seeds, so reruns are exact replays.
"""

import itertools
import math
import time

import numpy as np
import pytest

from helpers import unit_vec
from liftconv.bounds import (
    angle_preservation_bound,
    dyadic_chain_check,
    maurey_f,
    maurey_h,
    solve_a,
)
from liftconv.cli import parse_config, run_sweep
from liftconv.concentration import (
    estimate_rap,
    estimate_rip_matrix,
    estimate_rop,
    exact_rip_small,
    isotropy_check,
    polarization_check,
)
from liftconv.fourier import dft_matrix
from liftconv.measurement import (
    Ensemble,
    LiftedPoint,
    adjoint_apply,
    forward,
    forward_dense,
    measurement_matrix,
    r_matrix,
)
from liftconv.models import ModelSpec, spectral_flatness
from liftconv.solver import SolveOptions, plant_instance, recover, success_metric
from liftconv.util import complex_gaussian, derive_seed, rng_for, unit


def _pass(name: str, detail: str):
    print(f"[acceptance] {name} PASS {detail}", flush=True)


def test_c01_adjoint_balance():
    t0 = time.perf_counter()
    ens = Ensemble.generate(12, 5, seed=201)
    rng = rng_for(201, "pairs")
    worst = 0.0
    for _ in range(100):
        X = complex_gaussian(rng, (12, 12))
        b = complex_gaussian(rng, 5)
        gap = abs(np.vdot(forward_dense(ens, X), b)
                  - np.vdot(X, adjoint_apply(ens, b)))
        rel = gap / (np.linalg.norm(X) * np.linalg.norm(b))
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass("C1 adjoint balance", f"worst={worst:.3e} time={elapsed:.2f}s")


def test_c02_entrywise_operator_agreement():
    t0 = time.perf_counter()
    ens = Ensemble.generate(16, 8, seed=202)
    mats = [measurement_matrix(ens, ell) for ell in range(8)]
    rng = rng_for(202, "points")
    worst = 0.0
    for _ in range(50):
        p = LiftedPoint(complex_gaussian(rng, 16), complex_gaussian(rng, 16))
        fwd = forward(ens, p)
        per_entry = np.array([np.vdot(M, p.dense()) for M in mats])
        rel = np.linalg.norm(fwd - per_entry) / np.linalg.norm(fwd)
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass("C2 entrywise agreement", f"worst={worst:.3e} time={elapsed:.2f}s")


def test_c03_frobenius_row_identity():
    # the squared Frobenius norm of the subsampled, diagonally weighted
    # inverse-transform block equals the weight vector's squared norm
    t0 = time.perf_counter()
    e0 = unit_vec(32, 0)
    worst = 0.0
    for draw in range(100):
        psi_kind = "gaussian" if draw % 2 == 0 else "identity"
        ens = Ensemble.generate(32, 8, psi_kind=psi_kind,
                                seed=derive_seed(203, "ens", draw))
        v = complex_gaussian(rng_for(203, "v", draw), 32)
        block = r_matrix(ens, LiftedPoint(e0, v))
        weights = dft_matrix(32) @ (ens.psi @ v)
        lhs = np.linalg.norm(block) ** 2
        rhs = np.linalg.norm(weights) ** 2
        rel = abs(lhs - rhs) / rhs
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass("C3 Frobenius identity", f"worst={worst:.3e} time={elapsed:.2f}s")


def test_c04_spectral_norm_bound():
    # operator norm of the flattened factor matrix is controlled by the
    # frozen factor's spectral flatness; exact once that factor's
    # dictionary image is normalized
    t0 = time.perf_counter()
    worst = 0.0
    for draw in range(100):
        ens = Ensemble.generate(32, 8, seed=derive_seed(204, "ens", draw))
        rng = rng_for(204, "pt", draw)
        u = complex_gaussian(rng, 32)
        v = complex_gaussian(rng, 32)
        v = v / np.linalg.norm(ens.psi @ v)
        R = r_matrix(ens, LiftedPoint(u, v))
        op = np.linalg.norm(R, 2)
        cap = np.sqrt(spectral_flatness(ens.psi @ v) / ens.m)
        cap *= np.linalg.norm(u)
        margin = op / cap
        worst = max(worst, margin)
        assert op <= cap * (1 + 1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass("C4 spectral bound", f"worst_ratio={worst:.4f} time={elapsed:.2f}s")


def test_c05_polarization_identity():
    t0 = time.perf_counter()
    rng = rng_for(205, "pol")
    worst = 0.0
    for _ in range(1000):
        m1 = complex_gaussian(rng, (16, 16))
        m2 = complex_gaussian(rng, (16, 16))
        xi = complex_gaussian(rng, 16)
        scale = np.linalg.norm(m1 @ xi) * np.linalg.norm(m2 @ xi)
        rel = polarization_check(m1, m2, xi) / scale
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass("C5 polarization", f"worst={worst:.3e} time={elapsed:.2f}s")


def test_c06_isotropy_mean_convergence():
    t0 = time.perf_counter()
    x = LiftedPoint(unit(complex_gaussian(rng_for(600, "u"), 16)),
                    unit(complex_gaussian(rng_for(600, "v"), 16)))
    details = []
    for avg in ("phi", "psi"):
        err20 = isotropy_check(16, 8, x, 20000, seed=601, average_over=avg)
        err5 = isotropy_check(16, 8, x, 5000, seed=602, average_over=avg)
        ratio = err20 / err5
        assert err20 < 0.05
        assert 0.35 <= ratio <= 0.7  # mean error shrinks like 1/sqrt(draws)
        details.append(f"{avg}: err20k={err20:.4f} ratio={ratio:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass("C6 isotropy", "; ".join(details) + f" time={elapsed:.1f}s")


def test_c07_estimator_calibration_against_enumeration():
    t0 = time.perf_counter()
    details = []
    for m in (6, 9, 12):
        A = complex_gaussian(rng_for(300, "mat", m), (m, 12)) / np.sqrt(m)
        exact = exact_rip_small(A, 2)
        rep = estimate_rip_matrix(A, ModelSpec(12, 2), 10_000,
                                  seed=derive_seed(300, "rip", m))
        assert 0.6 * exact <= rep.delta_hat <= exact + 1e-12
        details.append(f"m={m}: {rep.delta_hat / exact:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass("C7 estimator calibration",
          "hat/exact " + ", ".join(details) + f" time={elapsed:.1f}s")


def test_c08_deviation_scaling_trend():
    t0 = time.perf_counter()
    ms = np.array([16, 32, 64, 128])
    spec_u = ModelSpec(128, 2, side="left")
    spec_v = ModelSpec(128, 2, mu=4.0, side="right")
    hats = []
    for m in ms:
        ens = Ensemble.generate(128, int(m), seed=derive_seed(800, "ens", int(m)))
        rep = estimate_rap(ens, spec_u, spec_v, 2000,
                           seed=derive_seed(800, "rap", int(m)))
        hats.append(rep.delta_hat)
    slope = np.polyfit(np.log(ms), np.log(hats), 1)[0]
    assert -0.7 <= slope <= -0.3  # the deviation shrinks like 1/sqrt(m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _pass("C8 scaling trend", f"slope={slope:.3f} time={elapsed:.1f}s")


def test_c09_orthogonal_form_decomposition():
    t0 = time.perf_counter()
    ens = Ensemble.generate(64, 32, seed=derive_seed(900, "ens"))
    spec_u = ModelSpec(64, 4, side="left")
    spec_v = ModelSpec(64, 4, mu=4.0, side="right")
    seed = derive_seed(900, "common")
    rap = estimate_rap(ens, spec_u, spec_v, 2000, seed=seed)
    both = estimate_rop(ens, spec_u, spec_v, 2000, seed=seed,
                        orthogonality="both")
    either = estimate_rop(ens, spec_u, spec_v, 2000, seed=seed,
                          orthogonality="either")
    se = float(np.std(either.deviations, ddof=1) / np.sqrt(2000))
    lhs = either.delta_hat
    rhs = 2.0 * max(rap.delta_hat, both.delta_hat) + 3.0 * se
    assert lhs <= rhs
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass("C9 decomposition",
          f"lhs={lhs:.4f} rhs={rhs:.4f} margin={lhs / rhs:.3f} "
          f"time={elapsed:.1f}s")


def test_c10_recovery_phase_transition():
    t0 = time.perf_counter()
    ms = (16, 24, 32, 48, 64)
    trials = 50
    rates = []
    for m in ms:
        hits = 0
        for t in range(trials):
            seed = 7000 + t
            ens, truth, b, _ = plant_instance(128, m, 3, 3, seed=seed,
                                              mu1=3.0, mu2=3.0)
            res = recover(ens, b, SolveOptions(s1=3, s2=3, seed=seed))
            rel, _ = success_metric(res.point, truth, b, 0.0, ens)
            hits += rel <= 1e-4
        rates.append(hits / trials)
    # nondecreasing up to one standard error of each adjacent difference
    for lo, hi in zip(rates, rates[1:]):
        se = math.sqrt(lo * (1 - lo) / trials + hi * (1 - hi) / trials)
        assert hi >= lo - se
    assert rates[-1] >= 0.9
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _pass("C10 phase transition",
          "rates " + ", ".join(f"{m}:{r:.2f}" for m, r in zip(ms, rates))
          + f" time={elapsed:.1f}s")


def test_c11_formula_suite():
    t0 = time.perf_counter()
    a = solve_a()
    assert 1.0 < a < 2.0
    assert abs(math.log(a + 1.0) - 1.0 / a) <= 1e-12

    grid = sorted({int(round(10**e)) for e in np.linspace(0, 4, 37)})
    for n, k in itertools.product(grid, grid):
        assert maurey_f(k, n) <= math.sqrt(math.log(1 + n / k) / k) + 1e-15
        for m in grid:
            if m <= n:
                env = math.sqrt(math.log(m / k + 1) * math.log(n / k + 1) / k)
                assert maurey_h(k, n, m) <= env + 1e-15

    for delta in np.linspace(0.01, 0.99, 99):
        assert angle_preservation_bound(delta) <= 2 * math.sqrt(2) * delta

    for i in range(1000):
        rng = rng_for(1100, "dyadic", i)
        e = np.sort(rng.exponential(size=int(rng.integers(1, 65))))[::-1]
        if rng.integers(2):
            e[int(rng.integers(e.size)):] = 0.0
        assert dyadic_chain_check(e)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass("C11 formula suite",
          f"a={a:.6f} grid={len(grid)}^3 time={elapsed:.1f}s")


RIP_SWEEP = """
kind = rip
n = 16
m = 8,12
s1 = 2
s2 = 2
trials = 25
seed = 9
"""

RECOVER_SWEEP = """
kind = recover
n = 16
m = 12,14
s1 = 1
s2 = 1
trials = 3
seed = 9
restarts = 3
max_outer_iters = 10
"""


@pytest.mark.parametrize("config_text,label",
                         [(RIP_SWEEP, "rip"), (RECOVER_SWEEP, "recover")],
                         ids=("rip", "recover"))
def test_c12_sweep_determinism(config_text, label, tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config(config_text)
    paths = [tmp_path / f"{label}_{tag}.csv" for tag in ("w1", "w2", "again")]
    run_sweep(cfg, str(paths[0]), workers=1)
    run_sweep(cfg, str(paths[1]), workers=2)
    run_sweep(cfg, str(paths[2]), workers=1)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    metas = [(p.parent / (p.name + ".meta")).read_bytes() for p in paths]
    assert metas[0] == metas[1] == metas[2]
    elapsed = time.perf_counter() - t0
    _pass(f"C12 determinism ({label})",
          f"{len(blobs[0])} bytes x3 identical time={elapsed:.1f}s")
