"""Reference implementations the fast paths are tested against.

The naive oracles are written the obvious way: explicit loops and
explicit anti-diagonal sums, no FFTs. The dense forms of the
measurement operator (forward_dense, measurement_matrix, r_matrix,
xi_vector) build it from FFTs and dense DFT matrices, guarded to small
n, and the polarization check verifies the identity the analysis uses
on explicit matrices. The flat-projection oracle keeps the FFTs and
changes only how its floor is found. Tests treat these as ground truth.
"""

import numpy as np

from liftconv.fourier import dft_matrix, fftu, ifftu
from liftconv.measurement import DENSE_GUARD, Ensemble, LiftedPoint
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


# -- dense forms of the measurement operator ----------------------------------


R_MATRIX_GUARD = 64


def forward_dense(ens: Ensemble, X: np.ndarray) -> np.ndarray:
    """Measure an arbitrary matrix: A(X)[l] = <M_l, X>.

    Uses A(X) = (n/sqrt(m)) S_omega F^* diag(F (Phi X Psi^T) F); costs
    two dense products plus FFTs. Guarded to n <= DENSE_GUARD; for
    rank-one points use forward.
    """
    n, m = ens.n, ens.m
    if n > DENSE_GUARD:
        raise ValueError(
            f"dense evaluation is limited to n <= {DENSE_GUARD}; use forward"
        )
    X = np.asarray(X, dtype=complex)
    if X.shape != (n, n):
        raise ValueError("X must be n x n")
    Z = ens.phi @ X @ ens.psi.T
    d = np.diagonal(np.fft.fft(np.fft.fft(Z, axis=0), axis=1) / n).copy()
    return (n**1.5 / np.sqrt(m)) * np.fft.ifft(d)[ens.omega]


def measurement_matrix(ens: Ensemble, ell: int) -> np.ndarray:
    """Dense measurement matrix M_l for one sample position (0-based l).

    Guarded to n <= DENSE_GUARD.
    """
    n, m = ens.n, ens.m
    if n > DENSE_GUARD:
        raise ValueError(f"measurement matrices are materialized only for n <= {DENSE_GUARD}")
    if not 0 <= ell < m:
        raise ValueError("ell out of range")
    F = dft_matrix(n)
    fcol = F[:, ens.omega[ell]]
    core = (F.conj().T * fcol[None, :]) @ F.conj()
    return (n / np.sqrt(m)) * (ens.phi.conj().T @ core @ ens.psi.conj())


def r_matrix(ens: Ensemble, p: LiftedPoint) -> np.ndarray:
    """m x n^2 matrix u^T kron (sqrt(n/m) S_omega F^* diag(F Psi v)).

    Applied to xi_vector(ens) it reproduces forward(ens, p). Guarded to
    n <= R_MATRIX_GUARD.
    """
    n, m = ens.n, ens.m
    if n > R_MATRIX_GUARD:
        raise ValueError(f"r_matrix is materialized only for n <= {R_MATRIX_GUARD}")
    F = dft_matrix(n)
    d = F @ (ens.psi @ np.asarray(p.v, dtype=complex))
    B = np.sqrt(n / m) * ((F.conj().T)[ens.omega, :] * d[None, :])
    return np.kron(np.asarray(p.u, dtype=complex).reshape(1, n), B)


def xi_vector(ens: Ensemble) -> np.ndarray:
    """Column-stacked sqrt(n) * vec(F Phi), the flattened dictionary."""
    n = ens.n
    if n > R_MATRIX_GUARD:
        raise ValueError(f"xi_vector is materialized only for n <= {R_MATRIX_GUARD}")
    F = dft_matrix(n)
    return np.sqrt(n) * (F @ ens.phi).flatten(order="F")


def polarization_check(m_prime: np.ndarray, m_mat: np.ndarray, xi: np.ndarray) -> float:
    """Residual of the complex polarization identity on one vector.

    With <a, b> conjugate linear in a,

        <M' xi, M xi> = (1/4) sum_{alpha in {1,-1,i,-i}} alpha
                         * ||(M + alpha M') xi||^2.

    The weight alpha multiplies M' inside the norm unchanged;
    conjugating it there instead recovers <M xi, M' xi>. Returns the
    absolute residual, zero to rounding for any inputs.
    """
    m_prime = np.asarray(m_prime, dtype=complex)
    m_mat = np.asarray(m_mat, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    a = m_prime @ xi
    b = m_mat @ xi
    lhs = np.vdot(a, b)
    rhs = 0.25 * sum(
        alpha * np.linalg.norm(b + alpha * a) ** 2 for alpha in (1, -1, 1j, -1j)
    )
    return float(abs(lhs - rhs))


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
