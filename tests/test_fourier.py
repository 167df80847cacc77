"""Unitary DFT wrappers against the definition."""

import numpy as np

from helpers import naive_dft
from liftconv.fourier import dft_matrix, fftu, ifftu
from liftconv.util import complex_gaussian, rng_for


def test_fftu_matches_naive_dft():
    x = complex_gaussian(rng_for(0, "dft"), 13)
    assert np.allclose(fftu(x), naive_dft(x), atol=1e-12)


def test_dft_matrix_matches_fftu():
    x = complex_gaussian(rng_for(1, "dft"), 16)
    assert np.allclose(dft_matrix(16) @ x, fftu(x), atol=1e-12)


def test_dft_matrix_is_unitary_and_symmetric():
    F = dft_matrix(12)
    assert np.allclose(F.conj().T @ F, np.eye(12), atol=1e-12)
    assert np.allclose(F, F.T, atol=1e-15)


def test_roundtrip():
    x = complex_gaussian(rng_for(2, "dft"), 32)
    assert np.allclose(ifftu(fftu(x)), x, atol=1e-12)


def test_unitarity_preserves_norm():
    x = complex_gaussian(rng_for(3, "dft"), 50)
    assert abs(np.linalg.norm(fftu(x)) - np.linalg.norm(x)) < 1e-12
