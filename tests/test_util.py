"""Seed derivation and shared helpers."""

import numpy as np
import pytest

from liftconv.util import (
    ZeroVectorError,
    complex_gaussian,
    derive_seed,
    fmt_float,
    rng_for,
    unit,
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
