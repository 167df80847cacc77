"""Reference implementations the fast paths are tested against.

The naive oracles are written the obvious way: explicit loops and
explicit anti-diagonal sums, no FFTs. dft_matrix is the dense unitary
DFT matrix F, entries exp(-2i*pi*j*k/n)/sqrt(n), in which the
measurement algebra is stated. The dense forms of the measurement
operator (forward_dense, measurement_matrix, r_matrix, xi_vector) build
it from FFTs and dft_matrix, guarded to small n, and the polarization
check verifies the identity the analysis uses on explicit matrices.
The dense adjoint (adjoint_apply) and the FFT partial map
(partial_forward, PartialMap) are the second implementations the
library once kept beside FactoredOperator, moved here verbatim; the
library's same-named views of FactoredOperator are tested against
them. Tests treat these as ground truth.

The calibration oracles are paper content no library path calls:
estimate_rip_matrix samples the restricted isometry constant of an
explicit matrix and exact_rip_small enumerates it (C7 compares the
two), rop_form_samples draws the orthogonal-pair cross form over fresh
ensembles, dyadic_chain_check compares the entropy integral with its
dyadic series (C11), greedy_cover upper bounds a covering number, and
in_tilde_gamma is the predicate of the approximately sparse set.

The draw oracles (complex_gaussian_ref, gaussian_dictionary_ref,
sample_model_ref, derive_seed_ref) are the draw paths written with
complex arithmetic and incremental hashing, as the library first had
them; its real-view forms must match them byte for byte.
isotropy_check_ref is the isotropy check's loop of one draw at a time,
moved here verbatim; the library's blocks of draws must match it byte
for byte. It draws through measurement._gaussian_dictionary, the slice
of the library's one dictionary recipe, so the recipe's bits are pinned
by gaussian_dictionary_ref and by the isotropy check's recorded values.

recorded_under is the failure message of every recorded-bytes test: the
NumPy and BLAS builds its values were recorded under, and this run's.

no_children is the process-hygiene check of the fan-out tests, and
record_forks counts the siblings a fan-out forks.
"""

import hashlib
import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from liftconv.concentration import (
    EstimateReport,
    _decoupled_ops,
    _form,
    _run_trials,
)
from liftconv.measurement import (
    Ensemble,
    FactoredOperator,
    LiftedPoint,
    _gaussian_dictionary,
    _spectrum,
    sample_omega,
)
from liftconv.models import ModelSpec, as_signal, project_flat, sample_model
from liftconv.util import ZeroVectorError, _canon, rng_for, vnorm


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


DENSE_GUARD = 256
R_MATRIX_GUARD = 64


def dft_matrix(n: int) -> np.ndarray:
    """Dense unitary DFT matrix. Symmetric: F.T == F."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


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


def _scatter(ens: Ensemble, b: np.ndarray) -> np.ndarray:
    acc = np.zeros(ens.n, dtype=complex)
    np.add.at(acc, ens.omega, b)
    return acc


def adjoint_apply(ens: Ensemble, b: np.ndarray) -> np.ndarray:
    """Dense adjoint: sum_l b_l M_l, materialized. Guarded to n <= DENSE_GUARD."""
    n, m = ens.n, ens.m
    if n > DENSE_GUARD:
        raise ValueError(
            f"dense adjoint is limited to n <= {DENSE_GUARD}; "
            "use FactoredOperator.adjoint_image"
        )
    b = np.asarray(b, dtype=complex)
    if b.shape != (m,):
        raise ValueError("b must have length m")
    j = np.arange(n)
    F = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)  # unitary DFT
    d = F @ _scatter(ens, b)
    core = F.conj().T @ (d[:, None] * F.conj())
    return (n / np.sqrt(m)) * (ens.phi.conj().T @ core @ ens.psi.conj())


@dataclass
class PartialMap:
    """Linear map w -> A(w v0^T) or w -> A(u0 w^T) with its adjoint."""

    ens: Ensemble
    side: str
    fixed_hat: np.ndarray  # unnormalized FFT of the fixed factor's image

    def apply(self, w: np.ndarray) -> np.ndarray:
        ens = self.ens
        img = (ens.phi if self.side == "left" else ens.psi) @ w
        conv = np.fft.ifft(np.fft.fft(img) * self.fixed_hat)
        return np.sqrt(ens.n / ens.m) * conv[ens.omega]

    def adjoint(self, b: np.ndarray) -> np.ndarray:
        ens = self.ens
        root_n = np.sqrt(ens.n)  # the unitary DFT's scale
        s_hat = np.conj(self.fixed_hat) * (np.fft.fft(_scatter(ens, b)) / root_n)
        s = np.fft.ifft(s_hat) * root_n
        s *= np.sqrt(ens.n / ens.m)
        return (ens.phi if self.side == "left" else ens.psi).conj().T @ s


def partial_forward(ens: Ensemble, side: str, fixed: np.ndarray) -> PartialMap:
    """Freeze one factor of the bilinear measurement.

    side "left" freezes v0 = fixed and maps u to A(u v0^T); side
    "right" freezes u0 and maps v to A(u0 v^T). The returned object
    carries the matching adjoint, verified by the balance tests.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    fixed = np.asarray(fixed, dtype=complex)
    if fixed.shape != (ens.n,):
        raise ValueError("fixed factor must have length n")
    if np.linalg.norm(fixed) == 0:
        raise ZeroVectorError("fixed factor must be nonzero")
    fixed_hat = np.fft.fft((ens.psi if side == "left" else ens.phi) @ fixed)
    return PartialMap(ens=ens, side=side, fixed_hat=fixed_hat)


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


# -- calibration oracles for the estimators ----------------------------------


EXACT_RIP_N_GUARD = 16
EXACT_RIP_S_GUARD = 4


def estimate_rip_matrix(
    A: np.ndarray,
    spec: ModelSpec,
    trials: int,
    seed: int = 0,
) -> EstimateReport:
    """Vector-level isometry deviation of an explicit matrix.

    Sample max of | ||A x||^2 - ||x||^2 | / ||x||^2 over draws from the
    model. Every draw lies in the model set, so the estimate can never
    exceed the exact restricted constant of A at the same level.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[1] != spec.n:
        raise ValueError("A must be m x n with n matching the model")

    def trial(t, rng):
        x = sample_model(spec, rng)
        nsq = float(np.linalg.norm(x) ** 2)
        return abs(float(np.linalg.norm(A @ x) ** 2) - nsq) / nsq, {"x": x}

    return _run_trials(trials, seed, trial)


def exact_rip_small(A: np.ndarray, s: int) -> float:
    """Exact restricted isometry constant by support enumeration.

    max over |J| = s of || A_J^* A_J - I ||_2. Guarded to n <= 16 and
    s <= 4.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    n = A.shape[1]
    if n > EXACT_RIP_N_GUARD or s > EXACT_RIP_S_GUARD:
        raise ValueError(
            f"exact enumeration is limited to n <= {EXACT_RIP_N_GUARD}, s <= {EXACT_RIP_S_GUARD}"
        )
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    eye = np.eye(s)
    worst = 0.0
    for J in itertools.combinations(range(n), s):
        G = A[:, J]
        gram = G.conj().T @ G - eye
        ev = np.linalg.eigvalsh(gram)
        worst = max(worst, float(max(abs(ev[0]), abs(ev[-1]))))
    return worst


def rop_form_samples(
    n: int,
    m: int,
    point4: tuple,
    draws: int,
    seed: int = 0,
    decoupled: bool = False,
) -> np.ndarray:
    """Sample the orthogonal-pair cross form over fresh ensembles.

    For a fixed 4-tuple (u, v, u_hat, v_hat), draws the value
    <A(u_hat v_hat^T), A(u v^T)> over independent ensembles (sample
    positions without replacement, Gaussian dictionaries), either
    coupled (shared dictionaries) or decoupled (independent copies on
    the hatted side). Under factor-wise orthogonality the two value
    distributions match; tests compare them with a two-sample location
    test.
    """
    u, v, u_hat, v_hat = (np.asarray(w, dtype=complex) for w in point4)
    p, p_hat = LiftedPoint(u, v), LiftedPoint(u_hat, v_hat)
    vals = np.empty(draws, dtype=complex)
    for k in range(draws):
        rng = rng_for(seed, "ens", k)
        omega = sample_omega(n, m, "without_replacement", rng)
        phi = _gaussian_dictionary(n, rng)
        psi = _gaussian_dictionary(n, rng)
        base = Ensemble(n=n, m=m, omega=omega, phi=phi, psi=psi)
        op = FactoredOperator.of(base)
        ops = _decoupled_ops(base, op, rng) if decoupled else (op, op)
        vals[k] = _form(p_hat, p, *ops)
    return vals


# -- calibration oracles for the bounds and the models ------------------------


def dyadic_chain_check(e) -> bool:
    """Entropy integral vs dyadic series comparison on a finite sequence.

    Interprets e as dyadic entropy numbers e_1 >= e_2 >= ... >= e_K >= 0
    (zero beyond K), inducing the piecewise covering profile
    N(eps) = 2^{k-1} on [e_{k+1}, e_k). Evaluates

        integral_0^inf sqrt(log N(eps)) d eps
          = sqrt(log 2) * sum_k (e_k - e_{k+1}) * sqrt(k - 1)

    exactly and compares against sqrt(log 2) * sum_k e_k / sqrt(k).
    Returns True when integral <= series + 1e-12.
    """
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("e must be a nonempty 1-D sequence")
    if np.any(e < 0):
        raise ValueError("entropy numbers must be nonnegative")
    if np.any(np.diff(e) > 0):
        raise ValueError("entropy numbers must be nonincreasing")
    k = np.arange(1, e.size + 1, dtype=float)
    steps = e - np.append(e[1:], 0.0)
    integral = math.sqrt(math.log(2.0)) * float(np.sum(steps * np.sqrt(k - 1.0)))
    series = math.sqrt(math.log(2.0)) * float(np.sum(e / np.sqrt(k)))
    return integral <= series + 1e-12


def greedy_cover(points: np.ndarray, eps: float) -> int:
    """Size of a greedy eps-cover of a finite point set (euclidean).

    Farthest-point traversal: the first center is a point minimizing
    the maximum distance to the sample, and each subsequent center is
    the point farthest from the chosen ones, until everything lies
    within eps. The center sequence does not depend on eps, so the
    count is nonincreasing in eps, equals 1 exactly when eps is at
    least the sample's radius about its best point, and always upper
    bounds the true covering number.
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (count, dim) array")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    count = pts.shape[0]

    # max distance from each candidate center, chunked to bound memory
    worst = np.empty(count)
    chunk = max(1, int(2**22 // max(count, 1)))
    for start in range(0, count, chunk):
        block = pts[start : start + chunk]
        d = np.linalg.norm(block[:, None, :] - pts[None, :, :], axis=2)
        worst[start : start + chunk] = d.max(axis=1)
    center = int(np.argmin(worst))

    mind = np.linalg.norm(pts - pts[center], axis=1)
    n_centers = 1
    while mind.max() > eps:
        center = int(np.argmax(mind))
        n_centers += 1
        mind = np.minimum(mind, np.linalg.norm(pts - pts[center], axis=1))
    return n_centers


def in_tilde_gamma(x, s: int) -> bool:
    """True when ||x||_1 <= sqrt(s) * ||x||_2.

    Contains every vector accepted by in_gamma at the same level, by
    Cauchy-Schwarz. Scale-invariant.

    Raises
    ------
    ZeroVectorError
        If x is the zero vector (a ValueError).
    """
    x = as_signal(x)
    if not 1 <= s <= x.size:
        raise ValueError("need 1 <= s <= n")
    l2 = np.linalg.norm(x)
    if l2 == 0:
        raise ZeroVectorError("membership undefined for the zero vector")
    # relative slack so boundary cases (equal-modulus supports) are stable
    return float(np.abs(x).sum()) <= np.sqrt(s) * l2 * (1 + 1e-12)


def complex_gaussian_ref(rng, size):
    """util.complex_gaussian by complex arithmetic."""
    z = rng.standard_normal((2, size) if isinstance(size, (int, np.integer)) else (2, *size))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def gaussian_dictionary_ref(n: int, rng):
    """measurement._gaussian_dictionary by complex division."""
    return complex_gaussian_ref(rng, (n, n)) / np.sqrt(n)


def sample_model_ref(spec: ModelSpec, rng):
    """models.sample_model normalized by complex division."""
    n, s = spec.n, spec.s
    support = rng.choice(n, size=s, replace=False)
    x = np.zeros(n, dtype=complex)
    x[support] = complex_gaussian_ref(rng, s)
    x /= vnorm(x)
    if not spec.cap_binds:
        return x
    return project_flat(x, spec.mu)


def derive_seed_ref(base: int, *parts) -> int:
    """util.derive_seed by one blake2b update per part and separator."""
    h = hashlib.blake2b(digest_size=8)
    h.update(_canon(base).encode())
    for part in parts:
        h.update(b"|")
        h.update(_canon(part).encode())
    return int.from_bytes(h.digest(), "little") >> 1


def isotropy_check_ref(
    n: int,
    m: int,
    x: LiftedPoint,
    draws: int,
    seed: int = 0,
    fixed_kind: str = "gaussian",
    average_over: str = "phi",
    omega_mode: str = "without_replacement",
) -> float:
    """concentration.isotropy_check measuring one draw at a time."""
    if average_over not in ("phi", "psi"):
        raise ValueError("average_over must be 'phi' or 'psi'")
    if draws < 1:
        raise ValueError("draws must be positive")
    if x.norm_f == 0:
        raise ZeroVectorError("the isotropy check needs a nonzero point")

    setup = rng_for(seed, "setup")
    omega = sample_omega(n, m, omega_mode, setup)
    fixed = None if fixed_kind == "identity" else _gaussian_dictionary(n, setup)
    ens = Ensemble(n, m, omega, fixed_kind, fixed_kind, phi=fixed, psi=fixed)
    X = x.dense()

    gram = ens.phi.conj().T @ ens.phi
    target = X @ gram.T if average_over == "phi" else gram @ X

    op = FactoredOperator.of(ens)
    swap = "G_phi" if average_over == "phi" else "G_psi"
    acc = np.zeros((n, n), dtype=complex)
    for k in range(draws):
        G = _spectrum(_gaussian_dictionary(n, rng_for(seed, "draw", k)))
        op_k = replace(op, **{swap: G})
        acc += op_k.adjoint_image(op_k.forward(x.u, x.v))
    mean = acc / draws
    return float(np.linalg.norm(mean - target) / np.linalg.norm(target))


# The builds the recorded-bytes tests were recorded under (see
# .github/constraints.txt). Their digests depend on NumPy's pocketfft and
# bundled OpenBLAS, so another build can move one with no code change.
RECORDED_UNDER = "numpy 2.4.6 with scipy-openblas 0.3.31"


def recorded_under() -> str:
    """Failure message of a recorded-bytes assertion, naming the builds the
    value was recorded under and the ones this run has."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError, ValueError):
        build = "an unknown BLAS build"
    return (f"value recorded under {RECORDED_UNDER}; this run has numpy "
            f"{np.__version__} with {build}")


def no_children() -> bool:
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def record_forks(monkeypatch) -> list:
    """Records every os.fork of this process; a forked sibling appends to
    its own copy of the list, so this process's copy counts its siblings."""
    forks = []
    real = os.fork

    def recording():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", recording)
    return forks
