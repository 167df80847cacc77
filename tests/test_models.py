"""Model membership, projections, sampling, and orthogonalization."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import in_tilde_gamma, naive_dft, recorded_under, sample_model_ref, unit_vec
from liftconv import models
from liftconv.models import (
    FLATNESS_SLACK,
    ModelSpec,
    OrthogonalizationError,
    as_signal,
    hard_threshold,
    in_gamma,
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
    assert ModelSpec(16, 4, mu=1.0).cap_binds


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
    # five nonzeros, but concentrated enough that the l1/l2 relaxation accepts
    assert in_tilde_gamma(np.array([1.0, 0.05, 0.05, 0.05, 0.05, 0.0]), 2)


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
        # exactly zero, and every gradient step keeps them so
        a, b = complex_gaussian(rng, 2)
        x = a + b * (-1.0) ** np.arange(n)
    else:
        # two magnitude levels shared by many bins, random phases
        levels = np.where(rng.random(n) < 0.25, 5.0, 1.0)
        x = np.fft.ifft(levels * np.exp(2j * np.pi * rng.random(n))) * np.sqrt(n)
    mu = draw(st.one_of(st.just(1.0), st.just(float(n)),
                        st.floats(1.0, float(n), allow_nan=False)))
    return x, mu


@settings(max_examples=300, deadline=None)
@given(case=_flat_projection_cases())
def test_project_flat_lands_inside_the_cap_on_the_support_of_x(case):
    # the descent keeps the norm and the support, and a vector above the
    # cap lands strictly inside it (a cap within 1e-6 of 1 keeps one entry)
    x, mu = case
    out = project_flat(x, mu)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    assert set(np.flatnonzero(out)) <= set(np.flatnonzero(x))
    if spectral_flatness(x) <= mu:
        assert np.array_equal(out, x)
    elif mu * (1 - 1e-6) < 1:
        assert np.count_nonzero(out) == 1
    else:
        assert spectral_flatness(out) <= mu * (1 - 1e-6) * (1 + 1e-12)


def test_project_flat_moves_a_vector_at_the_cap_little():
    # with mu one ulp below the flatness, the first step aims at the goal
    # mu (1 - 1e-6), so the vector moves by about that much, not by a
    # full step
    moved = 0
    for t in range(10):
        x = complex_gaussian(rng_for(14, "pf-edge", t), 64)
        mu = float(np.nextafter(spectral_flatness(x), 0.0))
        out = project_flat(x, mu)
        assert spectral_flatness(out) <= mu + FLATNESS_SLACK
        assert np.linalg.norm(out - x) <= 1e-6 * np.linalg.norm(x)
        moved += not np.array_equal(out, x)
    assert moved > 0


def test_project_flat_leaves_a_symmetric_spectrum():
    # a constant plus an alternating sign has its spectrum on bins 0 and
    # n/2 only, and so does every gradient step, so the descent cannot go
    # below flatness n/2; its fallback toward one entry lands the cap
    n = 16
    a, b = complex_gaussian(rng_for(18, "pf-symmetric"), 2)
    x = a + b * (-1.0) ** np.arange(n)
    out = project_flat(x, 4.0)
    assert spectral_flatness(out) <= 4.0 * (1 - 1e-6)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_project_flat_falls_back_at_a_zero_gradient(monkeypatch):
    # x_j = 1 + (-1)^j has its spectrum on bins 0 and n/2 and its support
    # on the even entries, where the descent's gradient vanishes: it stops
    # before its first trial step, and the fallback's 30 bisection steps
    # (one spectrum each) land the cap on the support of x
    x = 1.0 + (-1.0) ** np.arange(8)
    states = []
    real = models._flat_state
    monkeypatch.setattr(models, "_flat_state", lambda y: states.append(1) or real(y))
    out = project_flat(x, 1.5)
    assert len(states) == 1 + models._FALLBACK_STEPS
    assert spectral_flatness(out) == pytest.approx(1.5 * (1 - 1e-6), abs=1e-6)
    assert spectral_flatness(out) <= 1.5 * (1 - 1e-6)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    assert set(out.nonzero()[0]) <= {0, 2, 4, 6}


# -- sampling -----------------------------------------------------------------


@pytest.mark.parametrize("mu", [None, 2.0, 4.0])
def test_sample_model_draws_admissible_unit_vectors(mu):
    spec = ModelSpec(24, 3, mu=mu)
    for t in range(10):
        x = sample_model(spec, rng_for(5, "draw", t))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert spec.admits(x)


@pytest.mark.parametrize("n, s, mu", [
    (24, 3, None), (24, 3, 3.0), (24, 3, 5.5),
    (8, 8, None), (8, 8, 8.0),
    (8, 1, 1.0),
])
def test_sample_model_without_active_cap_is_the_raw_draw(n, s, mu):
    # no cap, or a cap of at least s: the normalized support-and-Gaussian
    # draw is returned as is, with nothing more drawn from the stream
    spec = ModelSpec(n, s, mu=mu)
    for t in range(20):
        rng = rng_for(16, "raw", n, s, t)
        support = rng.choice(n, size=s, replace=False)
        x = np.zeros(n, dtype=complex)
        x[support] = complex_gaussian(rng, s)
        got = sample_model(spec, rng_for(16, "raw", n, s, t))
        assert np.array_equal(got, unit(x))
        assert spec.admits(got)


@pytest.mark.parametrize("n, s, mu", [
    (1, 1, None), (8, 1, None), (8, 8, None), (24, 3, None), (128, 3, None),
    (128, 6, 4.0), (24, 3, 3.0),
    (64, 4, 2.5), (128, 3, 2.0), (16, 2, 1.0),
])
def test_sample_model_is_the_complex_division_bit_for_bit(n, s, mu):
    # uncapped, with a cap that cannot bind, and with binding caps, whose
    # draws go through project_flat
    spec = ModelSpec(n, s, mu=mu)
    for t in range(60):
        got = sample_model(spec, rng_for(31, "model-bits", t))
        ref = sample_model_ref(spec, rng_for(31, "model-bits", t))
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert got.tobytes() == ref.tobytes()


def test_sample_model_accepts_raw_draw_when_cap_is_loose():
    # an exactly s-sparse vector has flatness at most s
    spec = ModelSpec(16, 4, mu=4.0)
    x = sample_model(spec, rng_for(6, "loose"))
    assert np.count_nonzero(x) == 4
    assert spectral_flatness(x) <= 4.0 + FLATNESS_SLACK


def test_flat_draws_match_their_recorded_bytes():
    # 20 draws at (64, 4, mu=2.5), one stream each, those above the cap
    # moved inside it by the flat descent; sha256 prefix of their bytes
    spec = ModelSpec(64, 4, mu=2.5)
    h = hashlib.sha256()
    for t in range(20):
        h.update(sample_model(spec, rng_for(12, "parity", t)).tobytes())
    assert h.hexdigest()[:16] == "305c97b4eb427de0", recorded_under()


def test_sample_model_reproducible():
    spec = ModelSpec(16, 2, mu=3.0)
    a = sample_model(spec, rng_for(7, "rep"))
    b = sample_model(spec, rng_for(7, "rep"))
    assert np.array_equal(a, b)


def test_sample_model_lands_by_the_fallback_alone(monkeypatch):
    # with no trial steps every draw above the cap is moved inside it by
    # the fallback toward its largest entry, on its support
    monkeypatch.setattr(models, "_DESCENT_TRIALS", 0)
    spec = ModelSpec(64, 4, mu=2.5)
    for t in range(20):
        x = sample_model(spec, rng_for(12, "parity", t))
        assert spec.admits(x) and np.count_nonzero(x) <= spec.s


@pytest.mark.parametrize("mu", [1.01, 1.00001])
def test_sample_model_lands_caps_near_one(mu):
    # near flatness 1 the descent's objective tells the peak bin little
    # from the rest, and it stops above the cap on streams 63, 85 and 96
    # (a peak entry and two small symmetric ones); the fallback lands them
    spec = ModelSpec(128, 3, mu=mu)
    for t in range(100):
        x = sample_model(spec, rng_for(3, "f", t))
        assert spec.admits(x) and np.count_nonzero(x) <= spec.s


def test_sample_model_handles_tight_cap():
    # mu = 1 demands an exactly flat sparse vector: a single entry
    x = sample_model(ModelSpec(16, 2, mu=1.0), rng_for(9, "tight"))
    assert spectral_flatness(x) <= 1.0 + FLATNESS_SLACK


def _counting(fn):
    def wrapped(*args, **kwargs):
        wrapped.calls += 1
        return fn(*args, **kwargs)
    wrapped.calls = 0
    return wrapped


@pytest.mark.parametrize("spec, streams", [
    (ModelSpec(64, 4, mu=2.5), 200),
    (ModelSpec(128, 3, mu=2.0), 200),
    (ModelSpec(128, 6, mu=2.0), 50),
    (ModelSpec(64, 6, mu=3.0), 50),
], ids=["n64-s4", "n128-s3", "n128-s6", "n64-s6"])
def test_flat_draws_are_s_sparse_members(spec, streams, monkeypatch):
    # every draw is admitted with at most s nonzeros, and none fails
    projections = _counting(project_flat)
    monkeypatch.setattr(models, "project_flat", projections)
    for t in range(streams):
        x = sample_model(spec, rng_for(12, "parity", t))
        assert spec.admits(x) and np.count_nonzero(x) <= spec.s
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert projections.calls > 0


# -- orthogonalization --------------------------------------------------------


@pytest.mark.parametrize("spec", [ModelSpec(64, 4, mu=2.5), ModelSpec(16, 2, mu=1.8)])
def test_orthogonalize_pair_finds_flat_partners(spec, monkeypatch):
    # a raw s-sparse u_hat is often too peaky for the cap, so its partner
    # is moved inside it by the descent, with steps kept orthogonal to u
    pairs = []
    for seed in range(13, 40):
        rng = rng_for(seed, "orth-parity")
        pairs.append((sample_model(spec, rng), sample_model(ModelSpec(spec.n, spec.s), rng)))
    real = models._flat_descent
    moved = []

    def recording(x, mu, off=None):
        out = real(x, mu, off)
        moved.append(not np.array_equal(out, x))
        return out

    monkeypatch.setattr(models, "_flat_descent", recording)
    for u, u_hat in pairs:
        w = orthogonalize_pair(u, u_hat, spec)
        assert abs(np.vdot(u, w)) <= 1e-10
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert spec.admits(w) and spectral_flatness(w) <= spec.mu
    assert len(moved) == 27 and any(moved)


def test_orthogonalize_pair_contract():
    spec = ModelSpec(32, 4, mu=4.0)
    rng = rng_for(10, "orth")
    for _ in range(10):
        u = sample_model(spec, rng)
        w = orthogonalize_pair(u, sample_model(spec, rng), spec)
        assert abs(np.vdot(u, w)) <= 1e-10
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert spec.admits(w)


@pytest.mark.parametrize("n, s, mu", [
    (24, 3, None), (24, 3, 5.0), (32, 4, 2.0), (8, 8, 3.0), (8, 1, 1.0),
])
def test_side_does_not_change_sampling_or_orthogonalization(n, s, mu):
    # side is metadata: a left and a right model draw and orthogonalize
    # bitwise alike from the same stream, with or without a binding cap
    left, right = ModelSpec(n, s, mu=mu), ModelSpec(n, s, mu=mu, side="right")
    for t in range(5):
        x = sample_model(left, rng_for(18, "side", n, s, t))
        assert np.array_equal(x, sample_model(right, rng_for(18, "side", n, s, t)))
        u_hat = sample_model(left, rng_for(18, "side-hat", n, s, t))
        try:
            w = orthogonalize_pair(x, u_hat, left)
        except models.OrthogonalizationError:
            with pytest.raises(models.OrthogonalizationError):
                orthogonalize_pair(x, u_hat, right)
        else:
            assert np.array_equal(w, orthogonalize_pair(x, u_hat, right))


@pytest.mark.parametrize("n, s, mu", [(64, 4, 4.0), (64, 4, 6.5), (16, 2, 16.0),
                                      (32, 5, 5.0)])
def test_orthogonalize_pair_does_no_flatness_work_when_the_cap_cannot_bind(
        n, s, mu, monkeypatch):
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
        got = orthogonalize_pair(u, u_hat, ModelSpec(n, s, mu=mu))
        ref = orthogonalize_pair(u, u_hat, ModelSpec(n, s))
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


def test_orthogonalize_pair_keeps_a_spike_where_u_vanishes_at_mu_1():
    # mu = 1 admits one entry alone; u is nonzero on the two largest
    # entries of the candidate, so only the third gives an orthogonal
    # partner, and one where u is nonzero on all three fails
    spec = ModelSpec(16, 3, mu=1.0)
    u = unit(unit_vec(16, 0) + unit_vec(16, 1))
    w = orthogonalize_pair(u, 3 * unit_vec(16, 0) - 3 * unit_vec(16, 1) + unit_vec(16, 2), spec)
    assert np.allclose(w, unit_vec(16, 2), rtol=0, atol=1e-15) and np.count_nonzero(w) == 1
    assert spec.admits(w)
    u3 = unit(unit_vec(16, 0) + unit_vec(16, 1) + unit_vec(16, 2))
    with pytest.raises(OrthogonalizationError):
        orthogonalize_pair(u3, 3 * unit_vec(16, 0) - 2 * unit_vec(16, 1) - unit_vec(16, 2), spec)


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
        ModelSpec(8, 2, side="middle")


def test_model_spec_has_no_sparsity_flavor():
    # the model is s-sparse; the l1/l2 relaxation is only a predicate
    with pytest.raises(TypeError):
        ModelSpec(8, 2, flavor="exact")


def test_admits_counts_the_support():
    spec = ModelSpec(6, 2)
    assert spec.admits(np.array([1.0, 0.0, 0.5j, 0.0, 0.0, 0.0]))
    # five nonzeros fail the support count, however concentrated the mass
    assert not spec.admits(np.array([1.0, 0.05, 0.05, 0.05, 0.05, 0.0]))


def test_as_signal_validation():
    with pytest.raises(ValueError):
        as_signal(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_signal([1.0, np.inf])
    with pytest.raises(ValueError):
        as_signal([1.0, 2.0], n=3)
