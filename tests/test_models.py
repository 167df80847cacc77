"""Model membership, projections, sampling, and orthogonalization."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import bisect_project_flat, naive_dft, unit_vec
from liftconv import models
from liftconv.fourier import ifftu
from liftconv.models import (
    FLATNESS_SLACK,
    InfeasibleModelError,
    ModelSpec,
    OrthogonalizationError,
    as_signal,
    hard_threshold,
    in_gamma,
    in_tilde_gamma,
    orthogonalize_pair,
    project_flat,
    sample_model,
    spectral_flatness,
)
from liftconv.util import complex_gaussian, rng_for, unit


# -- spectral flatness --------------------------------------------------------


def test_flatness_matches_naive_dft_formula():
    x = complex_gaussian(rng_for(0, "sf"), 11)
    spec = np.abs(naive_dft(x)) ** 2
    expected = 11 * spec.max() / spec.sum()
    assert spectral_flatness(x) == pytest.approx(expected, rel=1e-12)


def test_flatness_extremes():
    # a single spike spreads evenly; a constant is a single tone
    assert spectral_flatness(unit_vec(8, 3)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_flatness(np.ones(8)) == pytest.approx(8.0, abs=1e-12)


def test_flatness_is_scale_invariant():
    x = complex_gaussian(rng_for(1, "sf"), 16)
    assert spectral_flatness(3.7j * x) == pytest.approx(
        spectral_flatness(x), rel=1e-12
    )


def test_flatness_rejects_zero():
    with pytest.raises(ValueError):
        spectral_flatness(np.zeros(4))


@st.composite
def _sparse_cases(draw):
    """(x, s) with x in in_tilde_gamma at level s: s-sparse Gaussian draws,
    s equal-modulus entries on one DFT mode (flatness exactly s), and such
    a mode plus a tail on every other entry that uses up to all of the
    l1/l2 test's slack."""
    n = draw(st.sampled_from([4, 16, 64, 128, 512]))
    s = draw(st.integers(1, min(n, 8)))
    rng = rng_for(draw(st.integers(0, 10**6)), "cap-bound")
    support = rng.choice(n, size=s, replace=False)
    shape = draw(st.sampled_from(["sparse", "mode", "mode_tail"]))
    x = np.zeros(n, dtype=complex)
    if shape == "sparse":
        x[support] = complex_gaussian(rng, s)
    else:
        mode = np.exp(2j * np.pi * rng.integers(n) * np.arange(n) / n)
        x[support] = mode[support]
        if shape == "mode_tail" and s < n:
            # ||x||_1 / (sqrt(s) ||x||_2) is about 1 + (n - s) eps / s
            eps = draw(st.floats(0.0, 1.0)) * 1e-12 * s / (n - s)
            tail = np.ones(n, dtype=bool)
            tail[support] = False
            x[tail] = eps * mode[tail]
    return x, s


@settings(max_examples=300, deadline=None)
@given(case=_sparse_cases())
def test_flatness_of_a_sparse_vector_is_at_most_s(case):
    # |(Fx)_k| <= ||x||_1 <= sqrt(s) ||x||_2 bounds the flatness by s;
    # in_tilde_gamma allows ||x||_1 up to sqrt(s) ||x||_2 (1 + 1e-12),
    # and that slack enters the flatness squared: a mode with a tail at
    # the edge of the slack reaches s (1 + 2e-12), plus rounding
    x, s = case
    assume(np.any(x) and in_tilde_gamma(x, s))
    if np.count_nonzero(x) <= s:
        assert spectral_flatness(x) <= s * (1 + 1e-12)
    else:
        assert spectral_flatness(x) <= s * (1 + 2.01e-12)


def test_admits_keeps_its_flatness_test_when_the_cap_cannot_bind():
    # 4 entries on one DFT mode plus a tail just below ZERO_TOL * peak on
    # the 2044 others: in_gamma counts 4 nonzeros, but the tail lifts the
    # flatness to about 4 + 2 * 2044e-12 > 4 + FLATNESS_SLACK
    n = 2048
    x = 0.9e-12 * np.exp(2j * np.pi * 5 * np.arange(n) / n)
    x[[3, 200, 901, 1500]] /= 0.9e-12
    spec = ModelSpec(n, 4, mu=4.0)
    assert in_gamma(x, 4) and not spec.cap_binds
    assert spectral_flatness(x) > 4.0 + FLATNESS_SLACK
    assert not spec.admits(x)


def test_cap_binds_only_below_the_sparsity_level():
    assert not ModelSpec(16, 4).cap_binds
    assert not ModelSpec(16, 4, mu=4.0).cap_binds
    assert not ModelSpec(16, 4, mu=9.5).cap_binds
    assert ModelSpec(16, 4, mu=3.99).cap_binds
    assert ModelSpec(16, 4, mu=1.0, flavor="approximate").cap_binds


# -- sparsity predicates ------------------------------------------------------


def test_in_gamma_counts_support():
    x = np.array([1.0, 0.0, 2.0, 0.0])
    assert in_gamma(x, 2)
    assert not in_gamma(np.array([1.0, 1.0, 2.0, 0.0]), 2)
    assert in_gamma(np.zeros(4), 1)


def test_in_gamma_ignores_relative_dust():
    x = np.array([1.0, 1e-14, 0.0, 0.0])
    assert in_gamma(x, 1)


def test_in_tilde_gamma_basics():
    assert in_tilde_gamma(unit_vec(6, 0), 1)
    # equal-modulus s-sparse vectors sit exactly on the boundary
    x = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    assert in_tilde_gamma(x, 3)
    assert not in_tilde_gamma(np.ones(9), 4)


def test_in_tilde_gamma_rejects_zero():
    with pytest.raises(ValueError):
        in_tilde_gamma(np.zeros(5), 2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 24))
def test_relaxed_family_contains_exact_family(seed, n):
    rng = rng_for(seed, "superset")
    s = int(rng.integers(1, n + 1))
    x = np.zeros(n, dtype=complex)
    support = rng.choice(n, size=s, replace=False)
    x[support] = complex_gaussian(rng, s)
    if np.linalg.norm(x) == 0:
        return
    assert in_gamma(x, s)
    assert in_tilde_gamma(x, s)


# -- hard thresholding --------------------------------------------------------


def test_hard_threshold_keeps_largest():
    x = np.array([1.0, -3.0, 2.0, 0.5])
    out = hard_threshold(x, 2)
    assert np.array_equal(out, np.array([0.0, -3.0, 2.0, 0.0]))


def test_hard_threshold_full_level_copies():
    x = complex_gaussian(rng_for(2, "ht"), 6)
    out = hard_threshold(x, 6)
    assert np.array_equal(out, x)
    assert out is not x


def test_hard_threshold_breaks_ties_low_index():
    out = hard_threshold(np.array([1.0, 1.0, 1.0]), 2)
    assert np.array_equal(out, np.array([1.0, 1.0, 0.0]))


def test_hard_threshold_is_nearest_support_restriction():
    # enumerate every support of size 2 at n = 6: no restriction is closer
    x = complex_gaussian(rng_for(3, "ht"), 6)
    best = hard_threshold(x, 2)
    d_best = np.linalg.norm(x - best)
    for J in itertools.combinations(range(6), 2):
        y = np.zeros(6, dtype=complex)
        y[list(J)] = x[list(J)]
        assert d_best <= np.linalg.norm(x - y) + 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 32))
def test_hard_threshold_is_idempotent_projection(seed, n):
    rng = rng_for(seed, "ht-prop")
    s = int(rng.integers(1, n + 1))
    x = complex_gaussian(rng, n)
    out = hard_threshold(x, s)
    assert np.count_nonzero(out) <= s
    assert np.array_equal(hard_threshold(out, s), out)
    assert in_gamma(out, s) or not np.any(out)


# -- flat projection ----------------------------------------------------------


def test_project_flat_meets_cap_and_keeps_norm():
    x = complex_gaussian(rng_for(4, "pf"), 32)
    x[0] += 40.0  # make it badly non-flat
    out = project_flat(x, 2.0)
    assert spectral_flatness(out) <= 2.0 + FLATNESS_SLACK
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-9)


def test_project_flat_passes_through_flat_input():
    x = unit_vec(16, 5)  # spike, flatness exactly 1
    out = project_flat(x, 1.5)
    assert np.array_equal(out, x)
    assert out is not x


def test_project_flat_validates_inputs():
    with pytest.raises(ValueError):
        project_flat(np.zeros(8), 2.0)
    with pytest.raises(ValueError):
        project_flat(np.ones(8), 0.5)
    with pytest.raises(ValueError):
        project_flat(np.ones(8), 9.0)


def test_project_flat_hits_hard_caps():
    # the constant vector must be flattened all the way down to mu = 1
    out = project_flat(np.ones(16), 1.0)
    assert spectral_flatness(out) <= 1.0 + FLATNESS_SLACK


@st.composite
def _flat_projection_cases(draw):
    """(x, mu) pairs: generic, sparse, spectra with exactly-zero bins and
    spectra with ties, at mu = 1, mu = n and in between."""
    n = draw(st.sampled_from([8, 64, 128]))
    rng = rng_for(draw(st.integers(0, 10**6)), "pf-oracle")
    shape = draw(st.sampled_from(["gaussian", "sparse", "zero_bins", "ties"]))
    if shape == "gaussian":
        x = complex_gaussian(rng, n)
    elif shape == "sparse":
        x = np.zeros(n, dtype=complex)
        s = int(rng.integers(1, 5))
        x[rng.choice(n, size=s, replace=False)] = complex_gaussian(rng, s)
    elif shape == "zero_bins":
        # a constant plus an alternating sign: every bin but 0 and n/2 is
        # exactly zero, so the floor must lift bins from zero
        a, b = complex_gaussian(rng, 2)
        x = a + b * (-1.0) ** np.arange(n)
    else:
        # two magnitude levels shared by many bins, random phases
        levels = np.where(rng.random(n) < 0.25, 5.0, 1.0)
        x = ifftu(levels * np.exp(2j * np.pi * rng.random(n)))
    mu = draw(st.one_of(st.just(1.0), st.just(float(n)),
                        st.floats(1.0, float(n), allow_nan=False)))
    return x, mu


@settings(max_examples=300, deadline=None)
@given(case=_flat_projection_cases())
def test_project_flat_matches_bisection_oracle(case):
    x, mu = case
    out = project_flat(x, mu)
    ref = bisect_project_flat(x, mu)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
    assert spectral_flatness(out) <= mu + FLATNESS_SLACK


def test_project_flat_cap_within_rounding_of_flatness():
    # with mu one ulp below the flatness, clipping removes energy only at
    # rounding level; often none at all, so no bin may be raised
    for t in range(10):
        x = complex_gaussian(rng_for(14, "pf-edge", t), 64)
        mu = float(np.nextafter(spectral_flatness(x), 0.0))
        out = project_flat(x, mu)
        assert spectral_flatness(out) <= mu + FLATNESS_SLACK
        assert np.linalg.norm(out - x) <= 1e-9 * np.linalg.norm(x)


# -- sampling -----------------------------------------------------------------


@pytest.mark.parametrize("flavor", ["exact", "approximate"])
@pytest.mark.parametrize("mu", [None, 2.0, 4.0])
def test_sample_model_draws_admissible_unit_vectors(flavor, mu):
    spec = ModelSpec(24, 3, mu=mu, flavor=flavor)
    for t in range(10):
        x = sample_model(spec, rng_for(5, "draw", t))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert spec.admits(x)


@pytest.mark.parametrize("flavor", ["exact", "approximate"])
@pytest.mark.parametrize("n, s, mu", [
    (24, 3, None), (24, 3, 3.0), (24, 3, 5.5),
    (8, 8, None), (8, 8, 8.0),
    (8, 1, 1.0),
])
def test_sample_model_without_active_cap_is_the_raw_draw(n, s, mu, flavor):
    # no cap, or a cap of at least s: the normalized support-and-Gaussian
    # draw is returned as is, with no alternation on the stream
    spec = ModelSpec(n, s, mu=mu, flavor=flavor)
    for t in range(20):
        rng = rng_for(16, "raw", n, s, t)
        support = rng.choice(n, size=s, replace=False)
        x = np.zeros(n, dtype=complex)
        x[support] = complex_gaussian(rng, s)
        got = sample_model(spec, rng_for(16, "raw", n, s, t))
        assert np.array_equal(got, unit(x))
        assert spec.admits(got)


def test_sample_model_accepts_raw_draw_when_cap_is_loose():
    # an exactly s-sparse vector has flatness at most s
    spec = ModelSpec(16, 4, mu=4.0)
    x = sample_model(spec, rng_for(6, "loose"))
    assert np.count_nonzero(x) == 4
    assert spectral_flatness(x) <= 4.0 + FLATNESS_SLACK


def test_flat_draws_match_their_recorded_bytes():
    # 20 draws at (64, 4, mu=2.5), one stream each, through the
    # project/threshold alternation; stream 7 exhausts its budget. The
    # sha256 prefix of the other 19 was recorded from the implementation
    # that took np.linalg.norm twice per draw and drew complex Gaussians
    # in two calls.
    spec = ModelSpec(64, 4, mu=2.5)
    h = hashlib.sha256()
    failed = []
    for t in range(20):
        try:
            h.update(sample_model(spec, rng_for(12, "parity", t)).tobytes())
        except InfeasibleModelError:
            failed.append(t)
    assert (h.hexdigest()[:16], failed) == ("d600954a31239a31", [7])


def test_sample_model_reproducible():
    spec = ModelSpec(16, 2, mu=3.0)
    a = sample_model(spec, rng_for(7, "rep"))
    b = sample_model(spec, rng_for(7, "rep"))
    assert np.array_equal(a, b)


def test_sample_model_reports_exhausted_budget(monkeypatch):
    monkeypatch.setattr(models, "_MAX_RESTARTS", 0)
    with pytest.raises(InfeasibleModelError):
        sample_model(ModelSpec(8, 2), rng_for(8, "budget"))


def test_sample_model_handles_tight_cap():
    # mu = 1 demands an exactly flat sparse vector; the alternation
    # finds near-degenerate pairs rather than giving up
    x = sample_model(ModelSpec(16, 2, mu=1.0), rng_for(9, "tight"))
    assert spectral_flatness(x) <= 1.0 + FLATNESS_SLACK


def _counting(fn):
    def wrapped(*args, **kwargs):
        wrapped.calls += 1
        return fn(*args, **kwargs)
    wrapped.calls = 0
    return wrapped


@pytest.mark.parametrize("spec", [
    ModelSpec(64, 4, mu=2.5),
    ModelSpec(128, 3, mu=2.0),
    ModelSpec(64, 6, mu=3.0, flavor="approximate"),
], ids=["n64-s4", "n128-s3", "n64-s6-approx"])
def test_sample_model_draws_match_bisection_projection(spec, monkeypatch):
    # the closed-form floor and the bisection oracle drive the
    # alternation to the same draws on the same streams, and exhaust the
    # restart budget on the same streams (these caps sit below s)
    def draws():
        out = []
        for t in range(12):
            try:
                out.append(sample_model(spec, rng_for(12, "parity", t)))
            except InfeasibleModelError:
                out.append(None)
        return out

    fast = draws()
    oracle = _counting(bisect_project_flat)
    monkeypatch.setattr(models, "project_flat", oracle)
    slow = draws()
    assert oracle.calls > 0
    assert sum(a is not None for a in fast) >= 8
    for a, b in zip(fast, slow):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(np.flatnonzero(a), np.flatnonzero(b))
            assert np.linalg.norm(a - b) <= 1e-12


# -- orthogonalization --------------------------------------------------------


@pytest.mark.parametrize("spec,seed", [(ModelSpec(64, 4, mu=3.0), 15),
                                       (ModelSpec(16, 2, mu=1.8), 28)])
def test_orthogonalize_pair_matches_bisection_projection(spec, seed, monkeypatch):
    # a raw s-sparse u_hat is too peaky for the cap, so the partner is
    # projected (once at n = 64, 25 times at n = 16) before it is admitted
    rng = rng_for(seed, "orth-parity")
    u = sample_model(spec, rng)
    u_hat = sample_model(ModelSpec(spec.n, spec.s), rng)
    fast = orthogonalize_pair(u, u_hat, spec)
    oracle = _counting(bisect_project_flat)
    monkeypatch.setattr(models, "project_flat", oracle)
    slow = orthogonalize_pair(u, u_hat, spec)
    assert oracle.calls > 0
    assert np.array_equal(np.flatnonzero(fast), np.flatnonzero(slow))
    assert np.linalg.norm(fast - slow) <= 1e-12


def test_orthogonalize_pair_contract():
    spec = ModelSpec(32, 4, mu=4.0)
    rng = rng_for(10, "orth")
    for _ in range(10):
        u = sample_model(spec, rng)
        w = orthogonalize_pair(u, sample_model(spec, rng), spec)
        assert abs(np.vdot(u, w)) <= 1e-10
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert spec.admits(w)


@pytest.mark.parametrize("flavor", ["exact", "approximate"])
@pytest.mark.parametrize("n, s, mu", [(64, 4, 4.0), (64, 4, 6.5), (16, 2, 16.0),
                                      (32, 5, 5.0)])
def test_orthogonalize_pair_does_no_flatness_work_when_the_cap_cannot_bind(
        n, s, mu, flavor, monkeypatch):
    # the partner stays s-sparse, so a cap mu >= s cannot exclude it: the
    # result is bitwise the uncapped one, found without a flatness test
    flatness = _counting(spectral_flatness)
    monkeypatch.setattr(models, "spectral_flatness", flatness)
    for t in range(10):
        rng = rng_for(17, "orth-cap", n, s, t)
        u = sample_model(ModelSpec(n, s), rng)
        # overlapping supports, so thresholding and the restricted
        # Gram-Schmidt step both act
        u_hat = u + sample_model(ModelSpec(n, s), rng)
        got = orthogonalize_pair(u, u_hat, ModelSpec(n, s, mu=mu, flavor=flavor))
        ref = orthogonalize_pair(u, u_hat, ModelSpec(n, s, flavor=flavor))
        assert np.array_equal(got, ref)
    assert flatness.calls == 0


def test_orthogonalize_pair_tests_flatness_when_the_cap_binds(monkeypatch):
    spec = ModelSpec(64, 4, mu=3.0)
    rng = rng_for(15, "orth-parity")
    u = sample_model(spec, rng)
    u_hat = sample_model(ModelSpec(64, 4), rng)
    flatness = _counting(spectral_flatness)
    monkeypatch.setattr(models, "spectral_flatness", flatness)
    w = orthogonalize_pair(u, u_hat, spec)
    assert flatness.calls > 0
    assert spectral_flatness(w) <= 3.0 + FLATNESS_SLACK


def test_orthogonalize_pair_keeps_disjoint_input():
    # disjoint supports are already orthogonal; nothing should move
    spec = ModelSpec(12, 2)
    u = unit((unit_vec(12, 0) + 2j * unit_vec(12, 1)))
    w0 = unit((unit_vec(12, 5) - unit_vec(12, 9)))
    w = orthogonalize_pair(u, w0, spec)
    assert np.allclose(w, w0, atol=1e-12)


def test_orthogonalize_pair_rejects_parallel():
    spec = ModelSpec(8, 2)
    u = unit(unit_vec(8, 0) + unit_vec(8, 1))
    with pytest.raises(OrthogonalizationError):
        orthogonalize_pair(u, 0.5j * u, spec)


def test_orthogonalize_pair_rejects_zero_anchor():
    with pytest.raises(ValueError):
        orthogonalize_pair(np.zeros(8), unit_vec(8, 1), ModelSpec(8, 2))


# -- spec validation ----------------------------------------------------------


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(8, 0)
    with pytest.raises(ValueError):
        ModelSpec(8, 9)
    with pytest.raises(ValueError):
        ModelSpec(8, 2, mu=0.5)
    with pytest.raises(ValueError):
        ModelSpec(8, 2, mu=9.0)
    with pytest.raises(ValueError):
        ModelSpec(8, 2, flavor="fuzzy")
    with pytest.raises(ValueError):
        ModelSpec(8, 2, side="middle")


def test_admits_flavors_differ():
    spec_exact = ModelSpec(6, 2, flavor="exact")
    spec_relaxed = ModelSpec(6, 2, flavor="approximate")
    # five nonzeros fail the support count, but the mass is concentrated
    # enough that the l1/l2 relaxation accepts
    x = np.array([1.0, 0.05, 0.05, 0.05, 0.05, 0.0])
    assert not spec_exact.admits(x)
    assert spec_relaxed.admits(x)


def test_as_signal_validation():
    with pytest.raises(ValueError):
        as_signal(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_signal([1.0, np.inf])
    with pytest.raises(ValueError):
        as_signal([1.0, 2.0], n=3)
