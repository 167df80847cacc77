"""Subsampled circular-convolution measurements of lifted rank-one matrices.

The measurement of X = u v^T is the vector

    A(X)[l] = sqrt(n/m) * (Phi u  circ-conv  Psi v)[omega_l],

equivalently the entrywise pairing <M_l, X> with the measurement matrix

    M_l = (n/sqrt(m)) * Phi^* F^* diag(F e_{omega_l}) conj(F) conj(Psi),

where F is the unitary DFT, Phi and Psi are n x n dictionaries, and
omega is a list of m sample positions. Ensemble holds both dictionaries
as matrices, the identity included. Inner products are conjugate
linear in the first argument throughout (numpy.vdot convention).

FactoredOperator is the library's operator: the solver, the estimators
and the isotropy check (a block of draws per call, as stacks) measure
with it, and the FFT forward plants and scores solver instances. These
are the only two implementations of the measurement; adjoint_apply,
partial_forward and PartialMap are views of FactoredOperator kept for
the names perfbench/tracer.py wraps.

_gaussian_dictionaries draws every Gaussian dictionary: an ensemble's,
the rop estimator's decoupled copies and the isotropy check's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import _INV_SQRT2, ZeroVectorError, rng_for, vnorm

__all__ = [
    "LiftedPoint",
    "Ensemble",
    "sample_omega",
    "forward",
    "adjoint_apply",
    "FactoredOperator",
    "PartialMap",
    "partial_forward",
    "lifted_inner",
    "lifted_dist",
]

DICTIONARY_KINDS = ("gaussian", "identity")
OMEGA_MODES = ("without_replacement", "iid_uniform")


@dataclass(frozen=True)
class LiftedPoint:
    """Rank-one point u v^T held in factored form."""

    u: np.ndarray
    v: np.ndarray

    @property
    def norm_f(self) -> float:
        """Frobenius norm of u v^T."""
        return vnorm(self.u) * vnorm(self.v)

    def dense(self) -> np.ndarray:
        return np.outer(self.u, self.v)


def lifted_inner(p_hat: LiftedPoint, p: LiftedPoint) -> complex:
    """<u_hat v_hat^T, u v^T> = <u_hat, u> <v_hat, v>, conjugating the hats."""
    return complex(np.vdot(p_hat.u, p.u) * np.vdot(p_hat.v, p.v))


def _r_factor(a: np.ndarray, b: np.ndarray):
    """(r11, r12, r22) of [a b] = Q R by two-column Gram-Schmidt.

    R is upper triangular with R^H R the Gram matrix of [a b]; a zero
    column a gives R = [[0, 0], [0, ||b||]].
    """
    r11 = float(np.linalg.norm(a))
    if r11 == 0:
        return 0.0, 0j, float(np.linalg.norm(b))
    q = a / r11
    r12 = complex(np.vdot(q, b))
    return r11, r12, float(np.linalg.norm(b - r12 * q))


def lifted_dist(p: LiftedPoint, q: LiftedPoint) -> float:
    """Frobenius distance between two factored rank-one matrices.

    With [u_p u_q] = Qa Ra and [v_p v_q] = Qb Rb (two-column Gram-Schmidt),
    u_p v_p^T - u_q v_q^T = Qa Ra diag(1, -1) Rb^T Qb^T, and Qa, Qb^T
    preserve the Frobenius norm, so the distance is that of the 2 x 2
    matrix Ra diag(1, -1) Rb^T. Its entries cancel terms of the order of
    ||p|| rather than ||p||^2 (as sqrt(||p||^2 + ||q||^2 - 2 Re<p, q>)
    does), so a relative distance r keeps about 16 + log10(r) digits, and
    the result does not depend on how scale and phase are split between
    the factors.
    """
    a11, a12, a22 = _r_factor(p.u, q.u)
    b11, b12, b22 = _r_factor(p.v, q.v)
    return float(np.sqrt(abs(a11 * b11 - a12 * b12) ** 2 + abs(a12 * b22) ** 2
                         + (a22 * abs(b12)) ** 2 + (a22 * b22) ** 2))


def sample_omega(n: int, m: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Draw m sample positions from {0, ..., n-1}.

    "without_replacement" gives distinct positions (requires m <= n);
    "iid_uniform" draws independently and may repeat.
    """
    if mode not in OMEGA_MODES:
        raise ValueError(f"unknown omega mode {mode!r}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if mode == "without_replacement":
        if m > n:
            raise ValueError("m > n is impossible without replacement")
        return np.asarray(rng.choice(n, size=m, replace=False), dtype=np.intp)
    return np.asarray(rng.integers(0, n, size=m), dtype=np.intp)


def _gaussian_dictionaries(n: int, k: int, rngs) -> np.ndarray:
    """(k, n, n) stack of i.i.d. CN(0, 1/n) dictionaries, slice i drawn from
    the i-th of the next k generators of the iterator rngs: the bits of
    complex_gaussian(rng, (n, n)) / np.sqrt(n) (util module docstring)."""
    z = np.empty((k, 2, n, n))
    for zi in z:
        next(rngs).standard_normal(out=zi)
    z *= _INV_SQRT2
    z *= 1.0 / np.sqrt(n)
    D = np.empty((k, n, n), dtype=complex)
    D.real, D.imag = z[:, 0], z[:, 1]
    return D


def _gaussian_dictionary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n Gaussian dictionary drawn from rng: _gaussian_dictionaries' slice."""
    return _gaussian_dictionaries(n, 1, iter((rng,)))[0]


@dataclass
class Ensemble:
    """One frozen draw of the measurement model.

    phi and psi are always n x n matrices. An identity kind may be given
    None or the identity matrix and stores np.eye(n); a Gaussian kind
    needs its matrix. omega holds integer positions in [0, n). generate
    draws all three from a seed; the ensemble does not keep the seed.
    """

    n: int
    m: int
    omega: np.ndarray
    phi_kind: str = "gaussian"
    psi_kind: str = "gaussian"
    phi: np.ndarray | None = field(default=None, repr=False)
    psi: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.m > self.n:
            raise ValueError("need 1 <= m <= n")
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (self.m,):
            raise ValueError("omega must hold exactly m indices")
        if not np.all((omega >= 0) & (omega < self.n)):
            raise ValueError("omega indices must lie in [0, n)")
        self.omega = omega.astype(np.intp)
        if not np.array_equal(self.omega, omega):
            raise ValueError("omega must hold integer positions")
        for name, kind, mat in (("phi", self.phi_kind, self.phi), ("psi", self.psi_kind, self.psi)):
            if kind not in DICTIONARY_KINDS:
                raise ValueError(f"unknown dictionary kind {kind!r}")
            if kind == "identity":
                eye = np.eye(self.n, dtype=complex)
                if mat is not None and not np.array_equal(mat, eye):
                    raise ValueError("an identity dictionary is None or the identity matrix")
                setattr(self, name, eye)
            elif mat is None or mat.shape != (self.n, self.n):
                raise ValueError("a gaussian dictionary must be an n x n matrix")

    @classmethod
    def generate(
        cls,
        n: int,
        m: int,
        phi_kind: str = "gaussian",
        psi_kind: str = "gaussian",
        seed: int = 0,
        omega_mode: str = "without_replacement",
    ) -> "Ensemble":
        """Draw omega and the dictionaries from independent streams
        derived from seed (an identity kind draws nothing)."""
        phi = None if phi_kind == "identity" else _gaussian_dictionary(n, rng_for(seed, "phi"))
        psi = None if psi_kind == "identity" else _gaussian_dictionary(n, rng_for(seed, "psi"))
        omega = sample_omega(n, m, omega_mode, rng_for(seed, "omega"))
        return cls(n=n, m=m, omega=omega, phi_kind=phi_kind, psi_kind=psi_kind,
                   phi=phi, psi=psi)


# -- FFT forward ------------------------------------------------------------


def forward(ens: Ensemble, p: LiftedPoint) -> np.ndarray:
    """Measure the rank-one point: sqrt(n/m) * S_omega(Phi u conv Psi v).

    FFT evaluation; scaled to agree entrywise with <M_l, u v^T>.
    """
    x = ens.phi @ np.asarray(p.u, dtype=complex)
    y = ens.psi @ np.asarray(p.v, dtype=complex)
    conv = np.fft.ifft(np.fft.fft(x) * np.fft.fft(y))
    return np.sqrt(ens.n / ens.m) * conv[ens.omega]


# -- factored operator --------------------------------------------------------


def _spectrum(D: np.ndarray) -> np.ndarray:
    return np.fft.fft(D, axis=-2)  # F D, F the unnormalized DFT, per matrix of a stack


@dataclass(frozen=True, eq=False)
class FactoredOperator:
    """The measurement as A(u v^T) = W @ ((G_phi @ u) * (G_psi @ v)).

    G_phi = F Phi and G_psi = F Psi for the unnormalized DFT F, and
    W = sqrt(n/m) F^-1[omega, :]: 2 n^2 + m n complex entries, built
    once per ensemble by of(). dataclasses.replace swaps a dictionary's
    spectrum, or puts in a (k, n, n) stack of them: forward and
    adjoint_image then measure slice i with the i-th operator, bit for
    bit k single calls.
    """

    G_phi: np.ndarray
    G_psi: np.ndarray
    W: np.ndarray

    @classmethod
    def of(cls, ens: Ensemble) -> "FactoredOperator":
        n = ens.n
        # W[l, k] is the scaled root of unity of index omega_l * k mod n,
        # reduced in integers, so every angle lies in [0, 2 pi)
        roots = np.sqrt(n / ens.m) * np.exp(2j * np.pi * np.arange(n) / n) / n
        W = roots[np.outer(ens.omega, np.arange(n)) % n]
        return cls(_spectrum(ens.phi), _spectrum(ens.psi), W)

    def forward(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A(u v^T); for n x k blocks u, v, one measurement per column pair."""
        return self.W @ ((self.G_phi @ u) * (self.G_psi @ v))

    def adjoint_image(self, b: np.ndarray) -> np.ndarray:
        """A^*(b) = sum_l b_l M_l = G_phi^H diag(W^H b) conj(G_psi), n x n,
        or (k, n, n) for a (k, m) stack b or stacked spectra."""
        d = np.swapaxes(np.conj(np.conj(b)[..., None, :] @ self.W), -1, -2)
        return np.swapaxes(self.G_phi.conj(), -1, -2) @ (d * np.conj(self.G_psi))

    def frozen(self, side: str, fixed: np.ndarray):
        """Frozen-factor map w -> WH @ (G @ w) as its factors (WH, G).

        side "left" freezes v = fixed, w -> A(w v^T); "right" freezes u = fixed.
        The fixed factor is imaged from its nonzero entries only.
        """
        G_fixed, G = (self.G_psi, self.G_phi) if side == "left" else (self.G_phi, self.G_psi)
        S = fixed.nonzero()[0]
        return self.W * (G_fixed[:, S] @ fixed[S]), G


# -- tracer views -------------------------------------------------------------

# adjoint_apply, PartialMap and partial_forward are views of FactoredOperator
# that stay here, out of the package namespace, only because
# perfbench/tracer.py wraps them by name; no library code calls them.
def adjoint_apply(ens: Ensemble, b: np.ndarray) -> np.ndarray:
    """A^*(b) = sum_l b_l M_l as an n x n matrix: FactoredOperator.adjoint_image."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (ens.m,):
        raise ValueError("b must have length m")
    return FactoredOperator.of(ens).adjoint_image(b)


@dataclass(frozen=True, eq=False)
class PartialMap:
    """Linear map w -> A(w v0^T) or w -> A(u0 w^T) as w -> WH @ (G @ w),
    the factors of FactoredOperator.frozen, with its adjoint."""

    WH: np.ndarray
    G: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.WH @ (self.G @ w)

    def adjoint(self, b: np.ndarray) -> np.ndarray:
        return self.G.conj().T @ (self.WH.conj().T @ b)


def partial_forward(ens: Ensemble, side: str, fixed: np.ndarray) -> PartialMap:
    """Freeze one factor of the bilinear measurement.

    side "left" freezes v0 = fixed and maps u to A(u v0^T); side
    "right" freezes u0 and maps v to A(u0 v^T).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    fixed = np.asarray(fixed, dtype=complex)
    if fixed.shape != (ens.n,):
        raise ValueError("fixed factor must have length n")
    if np.linalg.norm(fixed) == 0:
        raise ZeroVectorError("fixed factor must be nonzero")
    return PartialMap(*FactoredOperator.of(ens).frozen(side, fixed))
