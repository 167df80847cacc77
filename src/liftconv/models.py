"""Restricted signal models.

One model of admissible coefficient vectors, the paper's two priors
together: s-sparse vectors (at most ``s`` nonzero entries) that are
spectrally flat, their unitary-DFT energy peak at most ``mu`` times the
average bin energy (no cap when ``mu`` is None).

The module provides the membership predicates, the projections used to
push a vector into the model, a sampler, and a Gram-Schmidt routine that
builds model-feasible orthogonal partners.

The flatness cap constrains an s-sparse vector only when mu < s: every
DFT bin obeys |(Fx)_k| <= ||x||_1 <= sqrt(s) ||x||_2, so a vector with at
most s nonzeros has flatness at most s. The sampler and the partner
routine build their candidates with at most s nonzeros, and the flat
projection (a descent on the vector's own support) keeps them so; they
do flatness work only when ModelSpec.cap_binds. ModelSpec.admits tests
flatness whenever a cap is set, since it takes arbitrary inputs.

sample_model and orthogonalize_pair run several times per Monte Carlo
trial on short vectors, where NumPy's Python-level wrappers cost more
than the arithmetic. So they, hard_threshold and as_signal take norms
with util.vnorm and call the array methods (argsort, nonzero, all) in
place of the np.* wrappers, evaluating the same kernels in the same
order, so every draw is bit-identical to the wrapper form. sample_model
normalizes its draw by multiplying the float64 view by 1.0 / ||x||,
which is what x /= ||x|| computes for each part (util's module
docstring); its unset entries come from np.zeros, so they stay +0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import ZeroVectorError, complex_gaussian, vnorm

__all__ = [
    "ZERO_TOL",
    "FLATNESS_SLACK",
    "ModelSpec",
    "OrthogonalizationError",
    "as_signal",
    "spectral_flatness",
    "in_gamma",
    "hard_threshold",
    "project_flat",
    "sample_model",
    "orthogonalize_pair",
]

# An entry counts as zero when its modulus is below ZERO_TOL times the
# largest modulus in the vector.
ZERO_TOL = 1e-12

# Numerical headroom on spectral-flatness membership tests.
FLATNESS_SLACK = 1e-9

# orthogonalize_pair accepts a partner whose overlap with u is at most
# _ORTH_TOL * ||u||.
_ORTH_TOL = 1e-10

# The flat descent (_flat_descent): the power q of its objective
# sum |Fx|^(2q), its margin below the cap, its trials and its fallback's
# bisection steps (one FFT each).
_FLAT_POWER = 8
_FLAT_MARGIN = 1e-6
_DESCENT_TRIALS = 400
_FALLBACK_STEPS = 30


class OrthogonalizationError(RuntimeError):
    """No model-feasible orthogonal partner was found: orthogonalize_pair
    raises it for one candidate, and concentration.estimate_rop for a
    trial that spends its _ROP_MAX_ATTEMPTS draws on such failures."""


def as_signal(x, n: int | None = None) -> np.ndarray:
    """Coerce to a finite complex 1-D array, optionally of length n."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("signals are one-dimensional arrays")
    if n is not None and arr.size != n:
        raise ValueError(f"expected length {n}, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("signal entries must be finite")
    return arr


@dataclass(frozen=True)
class ModelSpec:
    """Description of one restricted signal family: the s-sparse
    vectors of length n within the flatness cap mu.

    Parameters
    ----------
    n : int
        Ambient dimension.
    s : int
        Sparsity level, 1 <= s <= n.
    mu : float or None
        Spectral-flatness cap in [1, n]; None disables the constraint.
    side : str
        Which dictionary this coefficient vector rides through,
        "left" or "right". Metadata only; it does not change sampling.

    A cap mu >= s admits every s-sparse vector (its flatness is at most
    s), so cap_binds is False and sampling and orthogonalization skip
    their flatness work. admits keeps its flatness test for any cap: an
    arbitrary input may carry entries below ZERO_TOL * peak, which in_gamma
    counts as zero but which can lift the flatness past s (by about
    2 sqrt(s) n 1e-12, more than FLATNESS_SLACK once n is about 500).
    """

    n: int
    s: int
    mu: float | None = None
    side: str = "left"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 1 <= self.s <= self.n:
            raise ValueError("need 1 <= s <= n")
        if self.mu is not None and not 1.0 <= self.mu <= self.n:
            raise ValueError("need 1 <= mu <= n")
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")

    @property
    def cap_binds(self) -> bool:
        """True when the flatness cap can exclude an s-sparse vector (mu < s)."""
        return self.mu is not None and self.mu < self.s

    def admits(self, x: np.ndarray) -> bool:
        """Membership test for this model, with flatness headroom."""
        if not in_gamma(x, self.s):
            return False
        if self.mu is None:
            return True
        return spectral_flatness(x) <= self.mu + FLATNESS_SLACK


def spectral_flatness(x) -> float:
    """Peak-to-average energy ratio of the DFT of x.

    Returns n * ||Fx||_inf^2 / ||Fx||_2^2, which lies in [1, n] and is
    invariant under scaling and under the DFT normalization convention.

    Raises
    ------
    ZeroVectorError
        If x is the zero vector (a ValueError).
    """
    x = as_signal(x)
    spectrum = np.abs(np.fft.fft(x)) ** 2
    total = spectrum.sum()
    if total == 0:
        raise ZeroVectorError("spectral flatness of the zero vector is undefined")
    return float(x.size * spectrum.max() / total)


def in_gamma(x, s: int) -> bool:
    """True when x has at most s effectively nonzero entries.

    An entry is effectively nonzero when its modulus exceeds
    ZERO_TOL * max |x_i|. The zero vector belongs to every level.
    """
    x = as_signal(x)
    if not 1 <= s <= x.size:
        raise ValueError("need 1 <= s <= n")
    mags = np.abs(x)
    peak = mags.max()
    if peak == 0:
        return True
    return int(np.count_nonzero(mags > ZERO_TOL * peak)) <= s


def hard_threshold(x, s: int) -> np.ndarray:
    """Keep the s entries of largest modulus, zero the rest.

    Ties are broken toward the lowest index. Among all vectors supported
    on s coordinates of x this is a Euclidean-nearest choice.
    """
    x = as_signal(x)
    if not 1 <= s <= x.size:
        raise ValueError("need 1 <= s <= n")
    order = (-np.abs(x)).argsort(kind="stable")
    out = np.zeros(x.size, dtype=complex)
    keep = order[:s]
    out[keep] = x[keep]
    return out


def _flat_state(y: np.ndarray):
    """(Fy unnormalized, bin powers over their peak p, h = their sum of
    q-th powers, p, log h + q log(flatness), flatness as spectral_flatness)."""
    Y = np.fft.fft(y)
    P = np.abs(Y) ** 2
    peak = P.max()
    flat = float(y.size * peak / P.sum())
    R = P / peak
    h = (R**_FLAT_POWER).sum()
    return Y, R, h, peak, math.log(h) + _FLAT_POWER * math.log(flat), flat


def project_flat(x, mu: float) -> np.ndarray:
    """x moved inside the flatness cap mu on its own support, norm kept.

    Backtracking descent of L(y) = log sum_k |(Fy)_k|^(2q) - q log ||y||^2
    (q = _FLAT_POWER = 8) over y with the norm of x, zero off its support
    S, stopped at flatness mu (1 - 1e-6) or less, strictly inside the
    cap: tone reservation (Krongold and Jones, IEEE TSP 2004) on the
    sparse-and-flat model. The gradient of L in conj(y) on S is q g, g =
    n F^-1(|Fy|^(2q-2) Fy) / sum_k |(Fy)_k|^(2q) - y / ||y||^2, and a step
    rescales y - t g to the norm of x. As L is about q log(flatness) and
    falls at rate 2 q ||g||^2, each gradient's first trial step t =
    log(flatness / goal) / (2 ||g||^2) just reaches the goal, so x near
    the cap moves little; a trial that neither reaches the goal nor
    lowers L by 1e-4 t ||g||^2 halves t. A descent that stops above the
    goal, at g = 0 (a spectrum on bins 0 and n/2 only keeps that form)
    or after _DESCENT_TRIALS trials (near flatness 1, where L tells the
    peak bin little from the rest), falls back: it keeps the largest
    entry of its iterate, scales the others by the largest factor in
    [0, 1] that _FALLBACK_STEPS bisection steps find within the goal (0
    leaves flatness 1), and rescales. A goal below 1 keeps the largest
    entry of x alone. So the result always lies inside the cap; x
    itself (a copy) when it already does.

    Raises ValueError if mu is outside [1, n] and ZeroVectorError if x
    is zero.
    """
    return _flat_descent(as_signal(x), mu)


def _flat_descent(x: np.ndarray, mu: float, off: np.ndarray | None = None):
    """project_flat of a complex array x. A unit vector off, zero outside
    the support of x, is projected out of every gradient and the fallback
    keeps an entry where off vanishes, so an x orthogonal to off stays
    so; None when the fallback finds no such entry."""
    n = x.size
    if not 1.0 <= mu <= n:
        raise ValueError("need 1 <= mu <= n")
    nrm = vnorm(x)
    if nrm == 0:
        raise ZeroVectorError("cannot flatten the zero vector")
    Y, R, h, peak, L, flat = _flat_state(x)
    if flat <= mu:
        return x.copy()
    goal = mu * (1.0 - _FLAT_MARGIN)
    y, g, support = x, None, x.nonzero()[0]
    for _ in range(_DESCENT_TRIALS if goal >= 1.0 else 0):
        if g is None:
            grad = (n / h * np.fft.ifft(R ** (_FLAT_POWER - 1) * Y) - flat * y) / peak
            g = np.zeros(n, dtype=complex)
            g[support] = grad[support]
            if off is not None:
                g -= np.vdot(off, g) * off
            gg = np.vdot(g, g).real
            if not gg > 0:
                break
            t = math.log(flat / goal) / (2.0 * gg)
        z = y - t * g
        z *= nrm / vnorm(z)
        state = _flat_state(z)
        if state[-1] <= goal or state[-2] <= L - 1e-4 * t * gg:
            y, (Y, R, h, peak, L, flat) = z, state
            if flat <= goal:
                return y
            g = None
        else:
            t *= 0.5
    mags = np.abs(y)
    if off is not None:
        mags[off.nonzero()[0]] = 0.0
    k = mags.argmax()
    if mags[k] == 0:
        return None
    out = np.zeros(n, dtype=complex)
    out[k] = y[k] * (nrm / mags[k])
    lo, hi = 0.0, 1.0
    for _ in range(_FALLBACK_STEPS if goal >= 1.0 else 0):
        lam = 0.5 * (lo + hi)
        z = lam * y
        z[k] = y[k]
        z *= nrm / vnorm(z)
        if _flat_state(z)[-1] <= goal:
            out, lo = z, lam
        else:
            hi = lam
    return out


def sample_model(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a unit-norm vector from the model described by spec.

    A uniformly random support of size spec.s is filled with i.i.d.
    complex Gaussian entries, and the draw is normalized. Without a
    binding cap (mu < s) that draw is the answer; under one it goes
    through project_flat, which returns it as drawn when it meets the
    cap and otherwise moves it inside the cap on its support. So every
    draw has at most s nonzeros.
    """
    n, s = spec.n, spec.s
    support = rng.choice(n, size=s, replace=False)
    x = np.zeros(n, dtype=complex)
    x[support] = complex_gaussian(rng, s)
    parts = x.view(np.float64)
    parts *= 1.0 / vnorm(x)
    if not spec.cap_binds:
        return x
    return project_flat(x, spec.mu)


def orthogonalize_pair(u, u_hat, spec: ModelSpec) -> np.ndarray:
    """Turn u_hat into a unit-norm model member exactly orthogonal to u.

    Gram-Schmidt removes the u-component, the candidate is hard
    thresholded to s entries, and a Gram-Schmidt step restricted to its
    support (skipped where u vanishes) restores exact orthogonality. The
    candidate then has at most s nonzeros, so without a binding cap it
    is a member by construction and only its overlap with u is checked.
    Under one, project_flat's descent moves it inside the cap on its
    support, with every step projected off u there and a fallback that
    keeps an entry where u vanishes, and membership is checked too.
    Raises ZeroVectorError (a ValueError) if u is zero, and
    OrthogonalizationError if u_hat is parallel to u, the candidate
    collapses to zero, the descent needs its fallback but u is nonzero
    on the candidate's whole support, or the final check fails.
    """
    u = as_signal(u, spec.n)
    u_hat = as_signal(u_hat, spec.n)
    nu = vnorm(u)
    if nu == 0:
        raise ZeroVectorError("u must be nonzero")

    w = u_hat - (np.vdot(u, u_hat) / nu**2) * u
    if vnorm(w) <= 1e-12 * vnorm(u_hat):
        raise OrthogonalizationError("u_hat is parallel to u")

    w = hard_threshold(w, spec.s)
    support = w.nonzero()[0]
    u_sub = np.zeros(spec.n, dtype=complex)
    u_sub[support] = u[support]
    nsub = vnorm(u_sub)
    if nsub > 0:
        w = w - (np.vdot(u_sub, w) / nsub**2) * u_sub
    nw = vnorm(w)
    if nw == 0:
        raise OrthogonalizationError("candidate collapsed to zero")
    w = w / nw
    binds = spec.cap_binds
    if binds:
        w = _flat_descent(w, spec.mu, off=u_sub / nsub if nsub > 0 else None)
        if w is None:
            raise OrthogonalizationError(f"no flat partner for {spec} off the support of u")
    if abs(np.vdot(u, w)) <= _ORTH_TOL * nu and (not binds or spec.admits(w)):
        return w
    raise OrthogonalizationError(f"no feasible orthogonal partner for {spec}")
