"""Unitary discrete Fourier transform helpers.

Everything downstream states its algebra in terms of the unitary DFT
matrix F with entries exp(-2i*pi*j*k/n)/sqrt(n). numpy's fft is the
unnormalized variant, so these wrappers carry the 1/sqrt(n) factors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fftu", "ifftu", "dft_matrix"]


def fftu(x: np.ndarray) -> np.ndarray:
    """Unitary forward DFT along the last axis: F @ x."""
    return np.fft.fft(x) / np.sqrt(x.shape[-1])


def ifftu(x: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT along the last axis: F* @ x."""
    return np.fft.ifft(x) * np.sqrt(x.shape[-1])


def dft_matrix(n: int) -> np.ndarray:
    """Dense unitary DFT matrix. Symmetric: F.T == F."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
