"""Seed derivation and shared helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liftconv.util import (
    ZeroVectorError,
    complex_gaussian,
    derive_seed,
    fmt_float,
    rng_for,
    unit,
    vnorm,
)


def test_derive_seed_is_stable():
    assert derive_seed(7, "trial", 3) == derive_seed(7, "trial", 3)


def test_derive_seed_distinguishes_labels():
    seeds = {
        derive_seed(7),
        derive_seed(7, "trial", 3),
        derive_seed(7, "trial", 4),
        derive_seed(7, "cell", 3),
        derive_seed(8, "trial", 3),
    }
    assert len(seeds) == 5


def test_derive_seed_distinguishes_types():
    # 1, 1.0, True and "1" are different labels on purpose
    seeds = {
        derive_seed(0, 1),
        derive_seed(0, 1.0),
        derive_seed(0, True),
        derive_seed(0, "1"),
        derive_seed(0, None),
    }
    assert len(seeds) == 5


def test_derive_seed_is_order_sensitive():
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


def test_derive_seed_fits_in_63_bits():
    for base in range(50):
        assert 0 <= derive_seed(base, "x") < 2**63


def test_rng_for_reproduces_streams():
    a = rng_for(0, "x").standard_normal(5)
    b = rng_for(0, "x").standard_normal(5)
    assert np.array_equal(a, b)


def test_fmt_float_round_trips():
    for x in (0.1, 1 / 3, 2e-300, 123456.789, 0.0, -1.5e10):
        assert float(fmt_float(x)) == x


def test_unit_normalizes():
    x = np.array([3.0, 4.0])
    assert np.linalg.norm(unit(x)) == pytest.approx(1.0, abs=1e-15)


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        unit(np.zeros(3))


def test_zero_vector_guard_is_a_value_error_of_its_own():
    assert issubclass(ZeroVectorError, ValueError)
    with pytest.raises(ZeroVectorError, match="zero vector"):
        unit(np.zeros(3))


def test_complex_gaussian_moments():
    z = complex_gaussian(rng_for(0, "cg"), 200_000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(np.mean(z)) < 0.02
    # real and imaginary parts carry half the energy each
    assert abs(np.mean(z.real**2) - 0.5) < 0.02


def _same_float(a, b) -> bool:
    return float(a).hex() == float(b).hex()


# finite doubles up to the largest, so squares and sums can overflow to inf
_ENTRIES = st.floats(allow_nan=False, allow_infinity=False, width=64)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(re=hnp.arrays(np.float64, st.integers(0, 40), elements=_ENTRIES),
       im_seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-160, 1e150, 1e300]),
       step=st.sampled_from([1, 2, 3, -1, -2]),
       kind=st.sampled_from(["real", "complex", "real part"]))
def test_vnorm_is_np_linalg_norm_bit_for_bit(re, im_seed, scale, step, kind):
    im = np.random.default_rng(im_seed).standard_normal(re.size) * scale
    if kind == "real":
        x = re
    else:
        x = re + 1j * im
        if kind == "real part":
            x = x.real  # a strided view into the complex buffer
    view = x[::step]
    assert _same_float(vnorm(view), np.linalg.norm(view))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("x", [
    np.zeros(5), np.zeros(7, dtype=complex), np.zeros(0), np.zeros(0, dtype=complex),
    np.full(4, 1e154), np.full(4, 1e308), np.full(3, 1e308 + 1e308j),
    np.array([1.7976931348623157e308, -1.7976931348623157e308]),
    np.full(6, 5e-324 + 5e-324j),
])
def test_vnorm_at_zero_and_near_overflow(x):
    assert _same_float(vnorm(x), np.linalg.norm(x))
    assert _same_float(vnorm(x[::2]), np.linalg.norm(x[::2]))


@pytest.mark.parametrize("size", [1, 7, np.int64(5), (3, 4), (2, 3, 5), [4, 2]])
def test_complex_gaussian_is_the_two_call_draw(size):
    ref_rng, rng = rng_for(0, "cg-ref", str(size)), rng_for(0, "cg-ref", str(size))
    ref = (ref_rng.standard_normal(size) + 1j * ref_rng.standard_normal(size)) / np.sqrt(2.0)
    got = complex_gaussian(rng, size)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
    # and the stream is left where the two calls left it
    assert rng.standard_normal() == ref_rng.standard_normal()
