"""Measurement operator against naive oracles and its own dense forms."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    DENSE_GUARD,
    R_MATRIX_GUARD,
    adjoint_apply as adjoint_apply_ref,
    dft_matrix,
    forward_dense,
    gaussian_dictionary_ref,
    measurement_matrix,
    naive_forward_matrix,
    naive_forward_pair,
    partial_forward as partial_forward_ref,
    r_matrix,
    recorded_under,
    unit_vec,
    xi_vector,
)
from liftconv.concentration import estimate_rop, isotropy_check
from liftconv.measurement import (
    Ensemble,
    FactoredOperator,
    LiftedPoint,
    _gaussian_dictionary,
    _spectrum,
    adjoint_apply,
    forward,
    lifted_dist,
    lifted_inner,
    partial_forward,
    sample_omega,
)
from liftconv.models import ModelSpec, hard_threshold
from liftconv.solver import SolveOptions, plant_instance, recover
from liftconv.util import ZeroVectorError, complex_gaussian, derive_seed, rng_for


@pytest.mark.parametrize("n", [1, 2, 16, 64, 128, 256])
def test_gaussian_dictionary_is_the_complex_division_bit_for_bit(n):
    for seed in range(20):
        got = _gaussian_dictionary(n, rng_for(seed, "dict-bits"))
        ref = gaussian_dictionary_ref(n, rng_for(seed, "dict-bits"))
        # C-contiguous complex128, since the BLAS products' bits follow the layout
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert got.shape == (n, n)
        assert got.tobytes() == ref.tobytes()


def _point(seed, n):
    rng = rng_for(seed, "pt")
    return LiftedPoint(complex_gaussian(rng, n), complex_gaussian(rng, n))


ENSEMBLES = [
    dict(phi_kind="gaussian", psi_kind="gaussian"),
    dict(phi_kind="identity", psi_kind="gaussian"),
    dict(phi_kind="gaussian", psi_kind="identity"),
    dict(phi_kind="identity", psi_kind="identity"),
]


# -- forward against the naive convolution ------------------------------------


@pytest.mark.parametrize("kinds", ENSEMBLES)
@pytest.mark.parametrize("omega_mode", ["without_replacement", "iid_uniform"])
def test_forward_matches_naive_convolution(kinds, omega_mode):
    ens = Ensemble.generate(9, 5, seed=11, omega_mode=omega_mode, **kinds)
    p = _point(12, 9)
    assert np.allclose(forward(ens, p), naive_forward_pair(ens, p.u, p.v),
                       atol=1e-10)


def test_forward_dense_matches_antidiagonal_sums():
    ens = Ensemble.generate(8, 5, seed=13)
    X = complex_gaussian(rng_for(14, "X"), (8, 8))
    assert np.allclose(forward_dense(ens, X), naive_forward_matrix(ens, X),
                       atol=1e-10)


def test_forward_dense_agrees_with_forward_on_rank_one():
    ens = Ensemble.generate(10, 6, seed=15)
    p = _point(16, 10)
    assert np.allclose(forward_dense(ens, p.dense()), forward(ens, p),
                       atol=1e-10)


def test_forward_is_bilinear():
    ens = Ensemble.generate(8, 4, seed=17)
    p = _point(18, 8)
    q = _point(19, 8)
    mixed = forward_dense(ens, np.outer(p.u, p.v) + 2j * np.outer(q.u, q.v))
    assert np.allclose(mixed, forward(ens, p) + 2j * forward(ens, q),
                       atol=1e-10)


# -- explicit measurement matrices --------------------------------------------


def test_measurement_matrix_reproduces_forward_entrywise():
    ens = Ensemble.generate(8, 4, seed=20)
    X = complex_gaussian(rng_for(21, "X"), (8, 8))
    fwd = forward_dense(ens, X)
    for ell in range(4):
        assert abs(np.vdot(measurement_matrix(ens, ell), X) - fwd[ell]) < 1e-10


def test_measurement_matrix_bounds_check():
    ens = Ensemble.generate(8, 4, seed=22)
    with pytest.raises(ValueError):
        measurement_matrix(ens, 4)
    with pytest.raises(ValueError):
        measurement_matrix(ens, -1)


# -- adjoint ------------------------------------------------------------------


def test_adjoint_apply_is_weighted_matrix_sum():
    ens = Ensemble.generate(8, 5, seed=23)
    b = complex_gaussian(rng_for(24, "b"), 5)
    expected = sum(b[ell] * measurement_matrix(ens, ell) for ell in range(5))
    assert np.allclose(adjoint_apply(ens, b), expected, atol=1e-10)


@pytest.mark.parametrize("kinds", ENSEMBLES)
def test_adjoint_balance(kinds):
    ens = Ensemble.generate(12, 5, seed=25, **kinds)
    rng = rng_for(26, "bal")
    for _ in range(5):
        X = complex_gaussian(rng, (12, 12))
        b = complex_gaussian(rng, 5)
        lhs = np.vdot(forward_dense(ens, X), b)
        rhs = np.vdot(X, adjoint_apply(ens, b))
        assert abs(lhs - rhs) < 1e-10 * np.linalg.norm(X) * np.linalg.norm(b)


@pytest.mark.parametrize("kinds", ENSEMBLES)
@pytest.mark.parametrize("omega_mode", ["without_replacement", "iid_uniform"])
def test_factored_operator_matches_fft_forward_and_dense_adjoint(kinds, omega_mode):
    n, m = 16, 7
    ens = Ensemble.generate(n, m, seed=27, omega_mode=omega_mode, **kinds)
    op = FactoredOperator.of(ens)
    rng = rng_for(28, "op")
    U, V = complex_gaussian(rng, (n, 3)), complex_gaussian(rng, (n, 3))
    b = complex_gaussian(rng, m)

    def close(got, ref):
        return np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    ref = np.stack([forward(ens, LiftedPoint(U[:, k], V[:, k])) for k in range(3)], axis=1)
    assert close(op.forward(U, V), ref)  # one measurement per column pair
    assert close(op.forward(U[:, 1], V[:, 1]), ref[:, 1])
    assert close(op.adjoint_image(b), adjoint_apply_ref(ens, b))
    # swapping one factor measures with the swapped dictionary
    ens_phi = Ensemble(n, m, ens.omega, "gaussian", ens.psi_kind,
                       phi=complex_gaussian(rng, (n, n)), psi=ens.psi)
    swapped = replace(op, G_phi=FactoredOperator.of(ens_phi).G_phi)
    p = LiftedPoint(U[:, 0], V[:, 0])
    assert close(swapped.forward(p.u, p.v), forward(ens_phi, p))


@pytest.mark.parametrize("n", [1, 7, 16, 64, 128, 256, 512])
@pytest.mark.parametrize("omega_mode", ["without_replacement", "iid_uniform"])
def test_factored_operator_w_matches_the_exponential_formula_bit_for_bit(n, omega_mode):
    # W indexes the n scaled roots of unity by omega * k mod n; at m = n
    # the iid draws repeat positions
    m = n if omega_mode == "iid_uniform" else max(1, n // 2)
    ens = Ensemble.generate(n, m, seed=n, omega_mode=omega_mode)
    if omega_mode == "iid_uniform" and n > 1:
        assert np.unique(ens.omega).size < m
    phase = np.outer(ens.omega, np.arange(n)) % n
    ref = np.sqrt(n / m) * np.exp(2j * np.pi * phase / n) / n
    assert FactoredOperator.of(ens).W.tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", ["gaussian", "identity"])
def test_stacked_operators_are_the_per_slice_calls_bit_for_bit(kind, k):
    # a (k, n, n) stack of spectra, or a (k, m) stack of b, measures slice i
    # with the bits of one call on slice i alone
    n, m = 16, 7
    op = FactoredOperator.of(Ensemble.generate(n, m, kind, kind, seed=29))
    rng = rng_for(30, "stack", k)
    D, B = complex_gaussian(rng, (k, n, n)), complex_gaussian(rng, (k, m))
    u, v = complex_gaussian(rng, n), complex_gaussian(rng, n)
    G = _spectrum(D)
    assert G.tobytes() == np.stack([_spectrum(d) for d in D]).tobytes()
    for swap in ("G_phi", "G_psi"):
        stacked, single = replace(op, **{swap: G}), [replace(op, **{swap: g}) for g in G]
        got = stacked.adjoint_image(B)
        assert got.tobytes() == np.stack([o.adjoint_image(b) for o, b in zip(single, B)]).tobytes()
        got = stacked.forward(u[:, None], v[:, None])[..., 0]
        assert got.tobytes() == np.stack([o.forward(u, v) for o in single]).tobytes()
    assert op.adjoint_image(B).tobytes() == np.stack([op.adjoint_image(b) for b in B]).tobytes()


def test_adjoint_handles_repeated_omega_entries():
    # iid sampling can repeat a position; the scatter must accumulate
    omega = np.array([3, 3, 0])
    ens = Ensemble(n=6, m=3, omega=omega,
                   phi=None, psi=None, phi_kind="identity", psi_kind="identity")
    b = complex_gaussian(rng_for(31, "b"), 3)
    expected = sum(b[ell] * measurement_matrix(ens, ell) for ell in range(3))
    assert np.allclose(adjoint_apply(ens, b), expected, atol=1e-10)


def test_dense_paths_are_guarded():
    ens = Ensemble(n=DENSE_GUARD + 1, m=3, omega=np.array([0, 1, 2]),
                   phi_kind="identity", psi_kind="identity")
    p = _point(32, DENSE_GUARD + 1)
    forward(ens, p)  # fast path has no guard
    with pytest.raises(ValueError):
        forward_dense(ens, np.zeros((ens.n, ens.n)))
    with pytest.raises(ValueError):
        adjoint_apply_ref(ens, np.zeros(3))
    with pytest.raises(ValueError):
        measurement_matrix(ens, 0)


# -- partial maps -------------------------------------------------------------


def test_partial_forward_freezes_each_side():
    ens = Ensemble.generate(10, 6, seed=33)
    p = _point(34, 10)
    fwd = forward(ens, p)
    left = partial_forward(ens, "left", p.v)
    right = partial_forward(ens, "right", p.u)
    assert np.allclose(left.apply(p.u), fwd, atol=1e-10)
    assert np.allclose(right.apply(p.v), fwd, atol=1e-10)


@pytest.mark.parametrize("side", ["left", "right"])
def test_partial_map_adjoint_balance(side):
    ens = Ensemble.generate(10, 6, seed=35)
    pm = partial_forward(ens, side, complex_gaussian(rng_for(36, side), 10))
    w = complex_gaussian(rng_for(37, "w"), 10)
    c = complex_gaussian(rng_for(38, "c"), 6)
    assert abs(np.vdot(c, pm.apply(w)) - np.vdot(pm.adjoint(c), w)) < 1e-10


def test_partial_forward_validates():
    ens = Ensemble.generate(8, 4, seed=39)
    with pytest.raises(ValueError):
        partial_forward(ens, "top", np.ones(8))
    with pytest.raises(ValueError):
        partial_forward(ens, "left", np.ones(5))
    with pytest.raises(ValueError):
        partial_forward(ens, "left", np.zeros(8))


# adjoint_apply, partial_forward and PartialMap are views of
# FactoredOperator; the dense adjoint and the FFT partial map they replace
# are their references


@pytest.mark.parametrize("kinds", ENSEMBLES)
@pytest.mark.parametrize("omega_mode", ["without_replacement", "iid_uniform"])
def test_views_match_the_dense_adjoint_and_the_fft_partial_map(kinds, omega_mode):
    def close(got, ref):
        return np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    for n, m in ((8, 5), (21, 9), (33, 33)):
        ens = Ensemble.generate(n, m, seed=60 + n, omega_mode=omega_mode, **kinds)
        rng = rng_for(61, "views", n)
        w, b = complex_gaussian(rng, n), complex_gaussian(rng, m)
        assert close(adjoint_apply(ens, b), adjoint_apply_ref(ens, b))
        # a dense fixed factor, and a 3-sparse one as the solver's iterates are
        for fixed in (complex_gaussian(rng, n), hard_threshold(complex_gaussian(rng, n), 3)):
            for side in ("left", "right"):
                view = partial_forward(ens, side, fixed)
                ref = partial_forward_ref(ens, side, fixed)
                assert close(view.apply(w), ref.apply(w))
                assert close(view.adjoint(b), ref.adjoint(b))


def test_views_reject_what_the_dense_adjoint_and_the_fft_partial_map_reject():
    ens = Ensemble.generate(8, 4, seed=62)
    for side, fixed, error in (("top", np.ones(8), ValueError),
                               ("left", np.ones(5), ValueError),
                               ("right", np.ones((8, 1)), ValueError),
                               ("left", np.zeros(8), ZeroVectorError),
                               ("right", np.zeros(8), ZeroVectorError)):
        for freeze in (partial_forward, partial_forward_ref):
            with pytest.raises(error):
                freeze(ens, side, fixed)
    for b in (np.zeros(3), np.ones(5), np.ones((4, 1))):
        for adjoint in (adjoint_apply, adjoint_apply_ref):
            with pytest.raises(ValueError, match="b must have length m"):
                adjoint(ens, b)


# -- flattened operator pieces ------------------------------------------------


def test_r_matrix_times_xi_is_forward():
    ens = Ensemble.generate(12, 5, seed=40)
    p = _point(41, 12)
    assert np.allclose(r_matrix(ens, p) @ xi_vector(ens), forward(ens, p),
                       atol=1e-10)


def test_r_matrix_identity_dictionary():
    ens = Ensemble.generate(8, 4, seed=42, phi_kind="identity")
    p = _point(43, 8)
    assert np.allclose(r_matrix(ens, p) @ xi_vector(ens), forward(ens, p),
                       atol=1e-10)


def test_flattened_pieces_are_guarded():
    n = R_MATRIX_GUARD + 1
    ens = Ensemble(n=n, m=2, omega=np.array([0, 1]),
                   phi_kind="identity", psi_kind="identity")
    with pytest.raises(ValueError):
        r_matrix(ens, _point(44, n))
    with pytest.raises(ValueError):
        xi_vector(ens)


def test_r_matrix_frobenius_row_identity():
    # with u a coordinate spike and a unit-norm dictionary image, the
    # block's squared Frobenius norm equals that image's squared norm
    ens = Ensemble.generate(16, 7, seed=45)
    v = complex_gaussian(rng_for(46, "v"), 16)
    v = v / np.linalg.norm(ens.psi @ v)
    R = r_matrix(ens, LiftedPoint(unit_vec(16, 0), v))
    img_hat = dft_matrix(16) @ (ens.psi @ v)
    assert np.linalg.norm(R) ** 2 == pytest.approx(
        np.linalg.norm(img_hat) ** 2, rel=1e-10
    )


# -- ensemble plumbing --------------------------------------------------------


def test_sample_omega_modes():
    rng = rng_for(47, "omega")
    w = sample_omega(16, 16, "without_replacement", rng)
    assert sorted(w) == list(range(16))
    w = sample_omega(4, 50, "iid_uniform", rng)
    assert w.min() >= 0 and w.max() < 4
    with pytest.raises(ValueError):
        sample_omega(4, 5, "without_replacement", rng)
    with pytest.raises(ValueError):
        sample_omega(4, 2, "bootstrap", rng)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(n=4, m=5, omega=np.arange(5))
    with pytest.raises(ValueError):
        Ensemble(n=4, m=2, omega=np.array([0, 9]),
                 phi_kind="identity", psi_kind="identity")
    with pytest.raises(ValueError):
        Ensemble(n=4, m=2, omega=np.array([0]),
                 phi_kind="identity", psi_kind="identity")
    # an identity kind stores the identity matrix, given None or that
    # matrix, so an ensemble rebuilds from its own fields; any other
    # matrix contradicts the kind
    ens = Ensemble(n=4, m=2, omega=np.array([0, 1]), phi_kind="identity",
                   psi_kind="identity", phi=np.eye(4, dtype=complex))
    assert np.array_equal(ens.phi, np.eye(4)) and np.array_equal(ens.psi, np.eye(4))
    assert np.array_equal(replace(ens, omega=np.array([2, 3])).psi, ens.psi)
    with pytest.raises(ValueError):
        Ensemble(n=4, m=2, omega=np.array([0, 1]), phi_kind="identity",
                 psi_kind="identity", phi=2 * np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        Ensemble.generate(4, 2, phi_kind="wavelet")
    # gaussian kinds without matrices would measure with the identity
    # while phi_kind and psi_kind say gaussian
    with pytest.raises(ValueError):
        Ensemble(8, 4, np.arange(4))
    with pytest.raises(ValueError):
        Ensemble(n=4, m=2, omega=np.array([0, 1]), phi_kind="identity")
    # sample positions are integers; they were truncated toward zero
    with pytest.raises(ValueError, match="integer"):
        Ensemble(n=4, m=2, omega=[0.5, 2.9], phi_kind="identity", psi_kind="identity")


def test_generate_is_deterministic_in_seed():
    a = Ensemble.generate(10, 4, seed=49)
    b = Ensemble.generate(10, 4, seed=49)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.phi, b.phi)


def test_generate_matches_its_recorded_bytes():
    # sha256 prefix of omega, phi and psi of the C8 ensemble at m = 32,
    # recorded when complex_gaussian drew its real and imaginary parts in
    # two standard_normal calls; one call of twice the size must give the
    # same dictionaries
    ens = Ensemble.generate(128, 32, seed=derive_seed(800, "ens", 32))
    digest = hashlib.sha256(b"".join(
        a.tobytes() for a in (ens.omega, ens.phi, ens.psi))).hexdigest()[:16]
    assert digest == "af95dc3350e33de7", recorded_under()


def _digest(arrays):
    return hashlib.sha256(b"".join(
        np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()[:16]


# Ensembles with an identity dictionary: sha256 prefixes of every dense,
# FFT, flattened, partial-map and factored-operator output at n=12, m=6,
# recorded when the identity was stored as None and each path branched
# on it. Multiplying by the identity matrix is exact, so storing it
# dense must leave every byte as it was.
_IDENTITY_MEASURE_RECORD = {
    ("identity", "gaussian", "without_replacement"): "97a88035b0f29708",
    ("identity", "gaussian", "iid_uniform"): "81bd72478d544bb1",
    ("gaussian", "identity", "without_replacement"): "555ce90e9e79a218",
    ("gaussian", "identity", "iid_uniform"): "d2ab7a56a2b01582",
    ("identity", "identity", "without_replacement"): "1b4ec413c8036071",
    ("identity", "identity", "iid_uniform"): "0e1a4edc7f256a58",
}


@pytest.mark.parametrize("phi_kind, psi_kind, omega_mode", sorted(_IDENTITY_MEASURE_RECORD))
def test_identity_dictionaries_measure_their_recorded_bytes(phi_kind, psi_kind, omega_mode):
    n, m = 12, 6
    ens = Ensemble.generate(n, m, phi_kind, psi_kind, seed=56, omega_mode=omega_mode)
    rng = rng_for(57, "identity")
    u, v, w = (complex_gaussian(rng, n) for _ in range(3))
    X, b = complex_gaussian(rng, (n, n)), complex_gaussian(rng, m)
    U, V = complex_gaussian(rng, (n, 3)), complex_gaussian(rng, (n, 3))
    u[[1, 4]] = 0
    p = LiftedPoint(u, v)
    op = FactoredOperator.of(ens)
    out = [forward(ens, p), forward_dense(ens, X), adjoint_apply_ref(ens, b),
           *(measurement_matrix(ens, ell) for ell in range(m)), r_matrix(ens, p),
           xi_vector(ens), op.G_phi, op.G_psi, op.W, op.forward(U, V),
           op.adjoint_image(b), *op.frozen("left", v), *op.frozen("right", u)]
    for side, fixed in (("left", v), ("right", u)):
        pm = partial_forward_ref(ens, side, fixed)
        out += [pm.apply(w), pm.adjoint(b)]
    assert _digest(out) == _IDENTITY_MEASURE_RECORD[phi_kind, psi_kind, omega_mode], recorded_under()


# Per dictionary pair with an identity side, recorded as for the
# measurements above: one solve (factor bytes, residual as float.hex,
# iterations) and a decoupled estimate_rop with a binding right cap
# (delta_hat as float.hex, the deviations' bytes, resamples). The
# estimates' draws and partners above the cap are moved inside it by the
# flat descent; their records are those of the descent.
_IDENTITY_RUN_RECORD = {
    ("identity", "gaussian"): (("9b4f4655abdaa3f6", "0x1.63bae37f317e0p-1", 40),
                               ("0x1.e4a2be275055cp-2", "bfccd132ee37912c", 0)),
    ("gaussian", "identity"): (("80e8745b0286a9bf", "0x1.3640eb0ecb8c8p-32", 48),
                               ("0x1.d494b8b304e08p-2", "e64da88ecf92f45b", 0)),
    ("identity", "identity"): (("f5439806ad2eb120", "0x1.c6e97ec36e92fp-52", 5),
                               ("0x1.2d83eaedd7b00p-1", "81fd237d50c985f2", 0)),
}


@pytest.mark.parametrize("phi_kind, psi_kind", sorted(_IDENTITY_RUN_RECORD))
def test_identity_dictionaries_solve_and_estimate_their_recorded_bytes(phi_kind, psi_kind):
    ens, _, b, _ = plant_instance(24, 16, 2, 2, seed=58, phi_kind=phi_kind, psi_kind=psi_kind)
    res = recover(ens, b, SolveOptions(s1=2, s2=2, restarts=2, seed=58))
    solved = (_digest([res.u_hat, res.v_hat]), res.residual_norm.hex(), res.iterations)
    ens = Ensemble.generate(16, 8, phi_kind, psi_kind, seed=59)
    rep = estimate_rop(ens, ModelSpec(16, 3, side="left"),
                       ModelSpec(16, 3, mu=2.5, side="right"), 6, seed=60, decoupled=True)
    estimated = (rep.delta_hat.hex(), _digest([rep.deviations]), rep.resamples)
    assert (solved, estimated) == _IDENTITY_RUN_RECORD[phi_kind, psi_kind], recorded_under()


def test_isotropy_with_a_fixed_identity_matches_its_recorded_bytes():
    x = LiftedPoint(complex_gaussian(rng_for(61, "u"), 8), complex_gaussian(rng_for(61, "v"), 8))
    got = tuple(isotropy_check(8, 4, x, 5, seed=62, fixed_kind="identity",
                               average_over=side).hex() for side in ("phi", "psi"))
    assert got == ("0x1.a57bf5ed57703p+0", "0x1.994959a37f5d0p+0"), recorded_under()


def test_isotropy_with_a_fixed_gaussian_matches_its_recorded_bytes():
    # recorded when every draw was measured on its own, one stream and one
    # dictionary at a time; measuring the draws in blocks keeps every bit
    x = LiftedPoint(complex_gaussian(rng_for(63, "u"), 16), complex_gaussian(rng_for(63, "v"), 16))
    got = tuple(isotropy_check(16, 8, x, 500, seed=64, average_over=side).hex()
                for side in ("phi", "psi"))
    assert got == ("0x1.7f845109e4c8fp-3", "0x1.5a1e64dbbcae4p-3"), recorded_under()


# -- factored geometry --------------------------------------------------------


def test_lifted_inner_matches_dense_frobenius_pairing():
    p = _point(50, 7)
    q = _point(51, 7)
    dense = np.vdot(p.dense(), q.dense())
    assert lifted_inner(p, q) == pytest.approx(dense, rel=1e-12)


def test_lifted_dist_matches_dense_norm():
    p = _point(52, 7)
    q = _point(53, 7)
    assert lifted_dist(p, q) == pytest.approx(
        np.linalg.norm(p.dense() - q.dense()), rel=1e-12
    )


@pytest.mark.parametrize("r", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_lifted_dist_keeps_the_digits_of_small_distances(r):
    # q moves u by a relative r and splits the scale 3 e^{0.7i} between
    # its factors, so the distance is exactly ||du|| ||v||; a relative
    # distance r keeps about 16 + log10(r) digits
    rng = rng_for(3, "lifted-dist")
    u, v, du = (complex_gaussian(rng, 128) for _ in range(3))
    du *= r * np.linalg.norm(u) / np.linalg.norm(du)
    c = 3.0 * np.exp(0.7j)
    p, q = LiftedPoint(u, v), LiftedPoint(c * (u + du), v / c)
    exact = np.linalg.norm(du) * np.linalg.norm(v)
    for got in (lifted_dist(p, q), lifted_dist(q, p)):
        assert abs(got - exact) <= (1e-15 / r) * exact


def test_lifted_dist_to_a_zero_factor_is_the_other_norm():
    p = _point(55, 7)
    for zero in (LiftedPoint(0 * p.u, p.v), LiftedPoint(p.u, 0 * p.v)):
        assert lifted_dist(zero, p) == pytest.approx(p.norm_f, rel=1e-14)
        assert lifted_dist(p, zero) == pytest.approx(p.norm_f, rel=1e-14)


def test_norm_f_is_frobenius_norm():
    p = _point(54, 9)
    assert p.norm_f == pytest.approx(np.linalg.norm(p.dense()), rel=1e-12)
