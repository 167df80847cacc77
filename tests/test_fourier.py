"""The dense unitary DFT oracle against the definition."""

import numpy as np

from helpers import dft_matrix, naive_dft
from liftconv.util import complex_gaussian, rng_for


def test_dft_matrix_matches_naive_dft():
    x = complex_gaussian(rng_for(1, "dft"), 16)
    assert np.allclose(dft_matrix(16) @ x, naive_dft(x), atol=1e-12)


def test_dft_matrix_is_unitary_and_symmetric():
    F = dft_matrix(12)
    assert np.allclose(F.conj().T @ F, np.eye(12), atol=1e-12)
    assert np.allclose(F, F.T, atol=1e-15)
