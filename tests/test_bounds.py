"""Closed-form calculators: hand values, envelopes, homogeneity, covers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dyadic_chain_check, greedy_cover
import liftconv.bounds as bounds
from liftconv.bounds import (
    BoundQuery,
    angle_preservation_bound,
    dudley_fourier_bound,
    dudley_sparse_bound,
    gamma2_bound,
    maurey_f,
    maurey_h,
    sample_complexity,
    solve_a,
)
from liftconv.util import rng_for

LOG_GRID = sorted({int(round(10**e)) for e in np.linspace(0, 4, 25)})


# -- the transcendental root ----------------------------------------------------


def test_solve_a_residual_and_interval():
    a = solve_a()
    assert 1.0 < a < 2.0
    assert abs(math.log(a + 1.0) - 1.0 / a) <= 1e-12


def test_solve_a_stops_once_the_midpoint_stops_moving(monkeypatch):
    # the bracket shrinks to adjacent doubles in 52 steps; the old exit
    # test, a width below 1e-16, never fired and it ran all 200
    logs = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def log(self, x):
            logs.append(x)
            return math.log(x)

    monkeypatch.setattr(bounds, "math", CountingMath())
    assert solve_a().hex() == (1.2399778876565501).hex()
    assert len(logs) <= 60  # one per step, one for the residual check


def test_solve_a_brackets_a_sign_change():
    a = solve_a()
    f = lambda t: math.log(t + 1.0) - 1.0 / t
    assert f(a - 1e-6) < 0 < f(a + 1e-6)


# -- entropy shapes -------------------------------------------------------------


def test_maurey_f_hand_values():
    # k = n makes both the exponent and the inner max boundary cases
    assert maurey_f(10, 10, 2.0) == pytest.approx(0.5 * math.sqrt(0.1), rel=1e-12)
    assert maurey_f(1, 1, 2.0) == pytest.approx(0.5, rel=1e-12)
    # p = 1 kills the inner factor entirely
    assert maurey_f(3, 100, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_maurey_f_envelope_and_monotonicity():
    for n in LOG_GRID:
        prev = None
        for k in LOG_GRID:
            f = maurey_f(k, n)
            assert f <= math.sqrt(math.log(1 + n / k) / k) + 1e-15
            if prev is not None:
                assert f <= prev + 1e-15
            prev = f


def test_maurey_h_hand_value():
    k, n, m = 4, 64, 16
    lead = 2.0 ** (-max(k / n, k / m, 1.0))
    row = max(1.0, math.sqrt(math.log(m / k + 1.0)))
    inner = min(1.0, math.sqrt(max(math.log(n / k + 1.0) / k, 1.0 / n)))
    assert maurey_h(k, n, m) == pytest.approx(lead * row * inner, rel=1e-12)


def test_maurey_h_envelope_and_row_monotonicity():
    for n in LOG_GRID:
        for m in LOG_GRID:
            if m > n:
                continue
            for k in LOG_GRID:
                h = maurey_h(k, n, m)
                env = math.sqrt(
                    math.log(m / k + 1.0) * math.log(n / k + 1.0) / k)
                assert h <= env + 1e-15
                assert h <= maurey_h(k, n, n) + 1e-15


def test_maurey_h_decays_for_tiny_m():
    assert maurey_h(40, 1000, 1) < 2.0**-39


def test_maurey_validation():
    with pytest.raises(ValueError):
        maurey_f(0, 4)
    with pytest.raises(ValueError):
        maurey_f(2, 4, p=0.5)
    with pytest.raises(ValueError):
        maurey_h(2, 4, 8)


# -- entropy integrals -----------------------------------------------------------


def test_dudley_sparse_value_and_homogeneity():
    assert dudley_sparse_bound(4, 20) == pytest.approx(
        2.0 * math.log(20) ** 1.5, rel=1e-12)
    assert dudley_sparse_bound(4, 20) == pytest.approx(10.39, abs=0.05)
    assert dudley_sparse_bound(8, 50) == pytest.approx(
        math.sqrt(2) * dudley_sparse_bound(4, 50), rel=1e-12)


def test_dudley_sparse_dominates_exact_sparse_shape():
    for n in (8, 32, 128, 1024):
        for s in range(2, n // 4 + 1):
            exact_shape = math.sqrt(s * math.log(math.e * n / s))
            assert dudley_sparse_bound(s, n) >= exact_shape


def test_dudley_fourier_value_and_linearity():
    base = dudley_fourier_bound(4, 64, 16, norm_t=1.0)
    assert base == pytest.approx(
        2.0 * math.sqrt(math.log(16)) * math.log(64) ** 1.5, rel=1e-12)
    assert dudley_fourier_bound(4, 64, 16, norm_t=0.25) == pytest.approx(
        0.25 * base, rel=1e-12)


def test_dudley_validation():
    with pytest.raises(ValueError):
        dudley_sparse_bound(1, 10)
    with pytest.raises(ValueError):
        dudley_sparse_bound(3, 2)
    with pytest.raises(ValueError):
        dudley_fourier_bound(2, 8, 9, norm_t=1.0)
    with pytest.raises(ValueError):
        dudley_fourier_bound(2, 8, 4, norm_t=0.0)


def test_gamma2_value_and_homogeneity():
    assert gamma2_bound(2, 2, 1.0, 16, 64) == pytest.approx(
        0.5 * math.log(64) ** 2.5, rel=1e-12)
    assert gamma2_bound(3, 5, 2.0, 44, 128) == pytest.approx(
        2 * gamma2_bound(3, 5, 2.0, 176, 128), rel=1e-12)


# -- sample complexity ------------------------------------------------------------


def test_sample_complexity_matches_independent_arithmetic():
    q = BoundQuery(n=128, m=1, s1=2, s2=2, mu1=4.0, mu2=4.0, delta=0.5)
    raw = 4.0 * (4.0 * 2 + 4.0 * 2) * math.log(128) ** 5
    got = sample_complexity(q, "orthogonal")
    assert got.m_required == math.ceil(raw)
    assert not got.feasible  # far beyond n = 128


def test_sample_complexity_variants_coincide_when_caps_are_flat():
    q = BoundQuery(n=64, m=1, s1=3, s2=3, mu1=1.0, mu2=1.0, delta=0.3)
    values = {sample_complexity(q, w).m_required
              for w in ("plain-left", "plain-right", "orthogonal")}
    assert len(values) == 1


def test_sample_complexity_delta_homogeneity():
    q1 = BoundQuery(n=64, m=1, s1=2, s2=2, delta=0.4)
    q2 = BoundQuery(n=64, m=1, s1=2, s2=2, delta=0.2)
    m1 = sample_complexity(q1, "plain-left").m_required
    m2 = sample_complexity(q2, "plain-left").m_required
    assert 4 * (m1 - 1) < m2 <= 4 * m1  # quadruples, up to the two ceilings


def test_sample_complexity_feasible_flag():
    q = BoundQuery(n=4096, m=1, s1=1, s2=1, delta=0.9, big_c=1e-4)
    assert sample_complexity(q, "plain-left").feasible


def test_sample_complexity_unknown_variant():
    q = BoundQuery(n=16, m=1, s1=1, s2=1)
    with pytest.raises(ValueError):
        sample_complexity(q, "plain-middle")


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(n=0, m=1, s1=1, s2=1)
    with pytest.raises(ValueError, match="need n >= 2"):  # the bounds take log n
        BoundQuery(n=1, m=1, s1=1, s2=1)
    with pytest.raises(ValueError):
        BoundQuery(n=4, m=1, s1=1, s2=1, mu1=0.5)
    with pytest.raises(ValueError):
        BoundQuery(n=4, m=1, s1=1, s2=1, delta=1.0)
    with pytest.raises(ValueError):
        BoundQuery(n=4, m=1, s1=1, s2=1, big_c=0.0)
    # no model or ensemble admits these: s1, s2, m and the caps are at most n
    for bad in (dict(s1=200), dict(s2=200), dict(m=200), dict(mu1=500.0), dict(mu2=500.0)):
        with pytest.raises(ValueError):
            BoundQuery(**{**dict(n=128, m=64, s1=2, s2=2), **bad})


# -- angle distortion --------------------------------------------------------------


def test_angle_bound_endpoints():
    assert angle_preservation_bound(0.0) == 0.0
    assert angle_preservation_bound(1.0 - 1e-12) == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-5)


def test_angle_bound_envelope_on_grid():
    for delta in np.linspace(0.01, 0.99, 99):
        assert angle_preservation_bound(delta) <= 2.0 * math.sqrt(2.0) * delta


def test_angle_bound_domain():
    with pytest.raises(ValueError):
        angle_preservation_bound(1.0)
    with pytest.raises(ValueError):
        angle_preservation_bound(-0.1)


# -- dyadic chain comparison ---------------------------------------------------------


def test_dyadic_chain_single_step():
    assert dyadic_chain_check([1.0, 0.0, 0.0])


def test_dyadic_chain_harmonic_sequence():
    assert dyadic_chain_check(1.0 / np.arange(1, 1001))


def test_dyadic_chain_rejects_bad_input():
    with pytest.raises(ValueError):
        dyadic_chain_check([1.0, 2.0])
    with pytest.raises(ValueError):
        dyadic_chain_check([1.0, -0.5])
    with pytest.raises(ValueError):
        dyadic_chain_check([])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(1, 60))
def test_dyadic_chain_holds_for_random_sequences(seed, length):
    rng = rng_for(seed, "dyadic")
    e = np.sort(rng.exponential(size=length))[::-1]
    if rng.integers(2):
        e[rng.integers(length):] = 0.0  # finite support with trailing zeros
    assert dyadic_chain_check(e)


# -- greedy covering ------------------------------------------------------------------


def _brute_cover_size(pts, eps):
    """Smallest cover with centers drawn from the sample, by enumeration."""
    count = len(pts)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    for k in range(1, count + 1):
        for centers in itertools.combinations(range(count), k):
            if np.all(d[list(centers)].min(axis=0) <= eps):
                return k
    return count


def test_greedy_cover_upper_bounds_enumerated_minimum():
    pts = rng_for(81, "cover").standard_normal((7, 2))
    for eps in (0.1, 0.5, 1.0, 2.0):
        greedy = greedy_cover(pts, eps)
        assert greedy >= _brute_cover_size(pts, eps)


def test_greedy_cover_endpoints():
    pts = rng_for(82, "cover").standard_normal((20, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    radius = d.max(axis=1).min()  # best single center
    assert greedy_cover(pts, radius) == 1
    assert greedy_cover(pts, 0.0) == 20  # all points distinct


def test_greedy_cover_monotone_in_eps():
    pts = rng_for(83, "cover").standard_normal((30, 2))
    sizes = [greedy_cover(pts, eps) for eps in (0.1, 0.3, 0.9, 2.7)]
    assert sizes == sorted(sizes, reverse=True)


def test_greedy_cover_validation():
    with pytest.raises(ValueError):
        greedy_cover(np.zeros((0, 2)), 0.5)
    with pytest.raises(ValueError):
        greedy_cover(np.zeros((3, 2)), -1.0)
    with pytest.raises(ValueError):
        greedy_cover(np.zeros(3), 0.5)
