"""Slow reference implementations the fast paths are tested against.

Everything here is written the obvious way: explicit loops, explicit
anti-diagonal sums, no FFTs (the flat-projection oracle keeps the
FFTs and changes only how its floor is found). Tests treat these as
ground truth.
"""

import numpy as np

from liftconv.fourier import fftu, ifftu
from liftconv.models import (
    FLATNESS_SLACK,
    FlatProjectionError,
    as_signal,
    spectral_flatness,
)


def naive_circular_conv(x, y):
    """Circular convolution by the definition, O(n^2)."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        for j in range(n):
            out[t] += x[j] * y[(t - j) % n]
    return out


def naive_dft(x):
    """Unitary DFT by the definition, O(n^2)."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for f in range(n):
        for j in range(n):
            out[f] += x[j] * np.exp(-2j * np.pi * f * j / n)
    return out / np.sqrt(n)


def naive_forward_pair(ens, u, v):
    """Measurement of a factored point via the naive convolution."""
    x = ens.phi @ np.asarray(u, dtype=complex)
    y = ens.psi @ np.asarray(v, dtype=complex)
    conv = naive_circular_conv(x, y)
    return np.sqrt(ens.n / ens.m) * conv[ens.omega]


def naive_forward_matrix(ens, X):
    """Measurement of a dense matrix via anti-diagonal sums.

    The bilinear form (Phi u conv Psi v)[t] = sum_j (Phi X Psi^T)[j, t-j]
    extends linearly from rank-one X to arbitrary X.
    """
    n = ens.n
    Z = ens.phi @ np.asarray(X, dtype=complex) @ ens.psi.T
    conv = np.zeros(n, dtype=complex)
    for t in range(n):
        for j in range(n):
            conv[t] += Z[j, (t - j) % n]
    return np.sqrt(n / ens.m) * conv[ens.omega]


def unit_vec(n, i):
    e = np.zeros(n, dtype=complex)
    e[i] = 1.0
    return e


def bisect_project_flat(x, mu, max_bisect=120):
    """Flat projection with the floor found by bisection on its energy.

    The oracle for ``project_flat``'s closed-form water-filling floor:
    the same clip, phase restore, renormalization and final check, but
    the floor is the midpoint of ``max_bisect`` halvings of [0, cap].
    """
    x = as_signal(x)
    n = x.size
    if not 1.0 <= mu <= n:
        raise ValueError("need 1 <= mu <= n")
    nrm = np.linalg.norm(x)
    if nrm == 0:
        raise ValueError("cannot flatten the zero vector")
    if spectral_flatness(x) <= mu:
        return x.copy()

    spec = fftu(x)
    mags = np.abs(spec)
    cap = np.sqrt(mu / n) * nrm
    target = nrm * nrm

    lo, hi = 0.0, cap
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        power = float(np.sum(np.clip(mags, mid, cap) ** 2))
        if power < target:
            lo = mid
        else:
            hi = mid
    floor = 0.5 * (lo + hi)

    shaped = np.clip(mags, floor, cap)
    phases = np.exp(1j * np.angle(spec))
    new_spec = shaped * phases
    new_spec *= nrm / np.linalg.norm(new_spec)
    out = ifftu(new_spec)

    if spectral_flatness(out) > mu + FLATNESS_SLACK:
        raise FlatProjectionError("flat projection missed its target", out)
    return out
