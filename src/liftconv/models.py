"""Restricted signal models.

Three families of admissible coefficient vectors:

* exactly sparse vectors, at most ``s`` nonzero entries;
* approximately sparse vectors, ``||x||_1 <= sqrt(s) * ||x||_2``
  (a superset of the exact family, by Cauchy-Schwarz);
* spectrally flat vectors, whose unitary-DFT energy peak is at most
  ``mu`` times the average bin energy.

The module provides the membership predicates, the projections used to
push a vector into a model set, a sampler, and a Gram-Schmidt routine
that builds model-feasible orthogonal partners.

The flatness cap constrains an s-sparse vector only when mu < s: every
DFT bin obeys |(Fx)_k| <= ||x||_1 <= sqrt(s) ||x||_2, so a vector with at
most s nonzeros has flatness at most s. The sampler and the partner
routine build their candidates with at most s nonzeros, so they do
flatness work (tests, projections) only when ModelSpec.cap_binds.
ModelSpec.admits still tests flatness whenever a cap is set, since it
takes arbitrary inputs.

sample_model and orthogonalize_pair run several times per Monte Carlo
trial on short vectors, where NumPy's Python-level wrappers cost more
than the arithmetic. So they, hard_threshold and as_signal take norms
with util.vnorm, call the array methods (argsort, nonzero, all) in place
of the np.* wrappers and np.zeros in place of np.zeros_like, and
normalize by the norm they already took for their zero test. Each
evaluates the same kernels in the same order, so every draw is
bit-identical to the wrapper form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import fftu, ifftu
from .util import ZeroVectorError, complex_gaussian, unit, vnorm

__all__ = [
    "ZERO_TOL",
    "FLATNESS_SLACK",
    "ModelSpec",
    "InfeasibleModelError",
    "FlatProjectionError",
    "OrthogonalizationError",
    "as_signal",
    "spectral_flatness",
    "in_gamma",
    "in_tilde_gamma",
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

# Budgets of the flat-model alternation: rounds per support, supports per
# draw. orthogonalize_pair uses the same round budget and accepts a
# partner whose overlap with u is at most _ORTH_TOL * ||u||.
_MAX_ROUNDS = 50
_MAX_RESTARTS = 20
_ORTH_TOL = 1e-10


class InfeasibleModelError(RuntimeError):
    """The sampler exhausted its restart budget for the requested model."""


class FlatProjectionError(RuntimeError):
    """Flat projection failed to meet its contract; carries the last iterate."""

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = last_iterate


class OrthogonalizationError(RuntimeError):
    """No model-feasible orthogonal partner was found."""


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
    """Description of one restricted signal family.

    Parameters
    ----------
    n : int
        Ambient dimension.
    s : int
        Sparsity level, 1 <= s <= n.
    mu : float or None
        Spectral-flatness cap in [1, n]; None disables the constraint.
    flavor : str
        "exact" uses the hard support-count predicate, "approximate"
        the l1/l2 relaxation.
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
    flavor: str = "exact"
    side: str = "left"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 1 <= self.s <= self.n:
            raise ValueError("need 1 <= s <= n")
        if self.mu is not None and not 1.0 <= self.mu <= self.n:
            raise ValueError("need 1 <= mu <= n")
        if self.flavor not in ("exact", "approximate"):
            raise ValueError("flavor must be 'exact' or 'approximate'")
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")

    @property
    def cap_binds(self) -> bool:
        """True when the flatness cap can exclude an s-sparse vector (mu < s)."""
        return self.mu is not None and self.mu < self.s

    def admits(self, x: np.ndarray) -> bool:
        """Membership test for this model, with flatness headroom."""
        if self.flavor == "exact":
            sparse_ok = in_gamma(x, self.s)
        else:
            sparse_ok = in_tilde_gamma(x, self.s)
        if not sparse_ok:
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


def hard_threshold(x, s: int) -> np.ndarray:
    """Keep the s entries of largest modulus, zero the rest.

    Ties are broken toward the lowest index. Among all vectors supported
    on s coordinates of x this is a Euclidean-nearest choice.
    """
    x = as_signal(x)
    if not 1 <= s <= x.size:
        raise ValueError("need 1 <= s <= n")
    if s >= x.size:
        return x.copy()
    order = (-np.abs(x)).argsort(kind="stable")
    out = np.zeros(x.size, dtype=complex)
    keep = order[:s]
    out[keep] = x[keep]
    return out


def project_flat(x, mu: float) -> np.ndarray:
    """Return the nearest-in-spirit vector with spectral flatness <= mu.

    Works on DFT magnitudes, preserving phases and the l2 norm: bins
    above the admissible ceiling sqrt(mu/n)*||x||_2 are clipped to it,
    and the removed energy is restored by raising the low bins to the
    exact water-filling floor (the one-shot limit of repeated
    clip-and-renormalize, which stalls when low bins are exactly zero).
    The floor comes from the sorted clipped magnitudes in closed form,
    O(n log n).

    Returns x unchanged (a copy) when it already satisfies the cap.

    Raises
    ------
    ValueError
        If mu is outside [1, n]; ZeroVectorError if x is zero.
    FlatProjectionError
        If the result misses the cap by more than FLATNESS_SLACK;
        carries the last iterate in ``last_iterate``.
    """
    x = as_signal(x)
    n = x.size
    if not 1.0 <= mu <= n:
        raise ValueError("need 1 <= mu <= n")
    nrm = np.linalg.norm(x)
    if nrm == 0:
        raise ZeroVectorError("cannot flatten the zero vector")
    if spectral_flatness(x) <= mu:
        return x.copy()

    spec = fftu(x)
    mags = np.abs(spec)
    cap = np.sqrt(mu / n) * nrm
    target = nrm * nrm

    # With c the clipped magnitudes in ascending order, raising every bin
    # below f to f gives energy P(f) = sum max(c_i, f)^2, non-decreasing in
    # f. With tail[k] = sum_{i >= k} c_i^2, P(c_k) = k c_k^2 + tail[k]; the
    # first k where that reaches the target brackets the floor in
    # (c_{k-1}, c_k], where P(f) = k f^2 + tail[k] (k = n: f = cap up to
    # rounding). k = 0 only when clipping removed no energy (flatness
    # within rounding of mu): then no bin is raised.
    c = np.sort(np.minimum(mags, cap))
    tail = np.append(np.cumsum((c * c)[::-1])[::-1], 0.0)
    k = int(np.searchsorted(np.arange(n) * c * c + tail[:n], target))
    floor = np.sqrt((target - tail[k]) / k) if k else 0.0

    shaped = np.clip(mags, floor, cap)
    phases = np.exp(1j * np.angle(spec))
    new_spec = shaped * phases
    new_spec *= nrm / np.linalg.norm(new_spec)
    out = ifftu(new_spec)

    if spectral_flatness(out) > mu + FLATNESS_SLACK:
        raise FlatProjectionError("flat projection missed its target", out)
    return out


def sample_model(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a unit-norm vector from the model described by spec.

    Construction: a uniformly random support of size spec.s is filled
    with i.i.d. complex Gaussian entries, and the draw is normalized.
    An s-sparse vector always has flatness at most s, so when the cap
    does not bind (no cap, or mu >= s) that draw is the answer. Only a
    cap mu < s runs the alternation: flat projection and re-thresholding
    until both predicates pass, with the support resampled after a
    budget of rounds.

    Raises
    ------
    InfeasibleModelError
        When every support in the restart budget fails to produce a
        member (mu < s only).
    """
    n, s = spec.n, spec.s
    for _ in range(_MAX_RESTARTS):
        support = rng.choice(n, size=s, replace=False)
        x = np.zeros(n, dtype=complex)
        x[support] = complex_gaussian(rng, s)
        nrm = vnorm(x)
        if nrm == 0:
            continue
        if not spec.cap_binds:
            return x / nrm
        for _ in range(_MAX_ROUNDS):
            if spec.admits(x):
                return unit(x)
            x = project_flat(x, spec.mu)
            if spec.admits(x):
                return unit(x)
            x = hard_threshold(x, s)
            if vnorm(x) == 0:
                break
    raise InfeasibleModelError(
        f"no admissible draw for {spec} after {_MAX_RESTARTS} restarts"
    )


def orthogonalize_pair(u, u_hat, spec: ModelSpec) -> np.ndarray:
    """Turn u_hat into a unit-norm model member exactly orthogonal to u.

    Gram-Schmidt removes the u-component, the candidate is re-projected
    into the model set, and a final Gram-Schmidt step restricted to the
    candidate's support restores exact orthogonality without breaking
    sparsity. When u vanishes on that support the candidate is already
    orthogonal and the final step is skipped.

    The candidate keeps at most s nonzeros throughout: it is hard
    thresholded, and the restricted Gram-Schmidt step and the
    normalization stay on its support. So when the cap does not bind
    (spec.cap_binds is False) it is a model member by construction, and
    the round runs no flatness test, no projection and no membership
    test; only the overlap with u is checked.

    Raises
    ------
    ZeroVectorError
        If u is zero (a ValueError).
    OrthogonalizationError
        If u_hat is parallel to u, or no feasible vector emerges within
        the round budget.
    """
    u = as_signal(u, spec.n)
    u_hat = as_signal(u_hat, spec.n)
    nu = vnorm(u)
    if nu == 0:
        raise ZeroVectorError("u must be nonzero")

    w = u_hat - (np.vdot(u, u_hat) / nu**2) * u
    if vnorm(w) <= 1e-12 * vnorm(u_hat):
        raise OrthogonalizationError("u_hat is parallel to u")

    binds = spec.cap_binds
    for _ in range(_MAX_ROUNDS):
        w = hard_threshold(w, spec.s)
        if binds and vnorm(w) > 0:
            if spectral_flatness(w) > spec.mu + FLATNESS_SLACK:
                w = hard_threshold(project_flat(w, spec.mu), spec.s)
        support = w.nonzero()[0]
        if support.size == 0:
            raise OrthogonalizationError("candidate collapsed to zero")
        u_sub = np.zeros(spec.n, dtype=complex)
        u_sub[support] = u[support]
        nsub = vnorm(u_sub)
        if nsub > 0:
            w = w - (np.vdot(u_sub, w) / nsub**2) * u_sub
        nw = vnorm(w)
        if nw == 0:
            raise OrthogonalizationError("candidate collapsed to zero")
        w = w / nw
        if abs(np.vdot(u, w)) <= _ORTH_TOL * nu and (not binds or spec.admits(w)):
            return w
    raise OrthogonalizationError(
        f"no feasible orthogonal partner for {spec} after {_MAX_ROUNDS} rounds"
    )
