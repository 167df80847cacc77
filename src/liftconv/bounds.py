"""Closed-form entropy and sample-complexity calculators.

Natural logarithms throughout; the only fixed constant baked into a
formula is the exact sqrt(log 2) of the dyadic chain comparison. Every
leading constant the analysis leaves unnamed enters as an explicit
factor of 1 times a user knob C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "BoundQuery",
    "solve_a",
    "maurey_f",
    "maurey_h",
    "dudley_sparse_bound",
    "dudley_fourier_bound",
    "gamma2_bound",
    "SampleComplexity",
    "sample_complexity",
    "angle_preservation_bound",
    "dyadic_chain_check",
    "greedy_cover",
]


@dataclass(frozen=True)
class BoundQuery:
    """Inputs to the bound calculators, validated once."""

    n: int
    m: int
    s1: int
    s2: int
    mu1: float = 1.0
    mu2: float = 1.0
    delta: float = 0.5
    big_c: float = 1.0

    def __post_init__(self):
        if min(self.n, self.m, self.s1, self.s2) < 1:
            raise ValueError("dimensions must be positive")
        if self.mu1 < 1 or self.mu2 < 1:
            raise ValueError("flatness caps must be at least 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.big_c <= 0:
            raise ValueError("C must be positive")


_ROOT_TOL = 1e-12


def solve_a() -> float:
    """Root of log(a + 1) = 1/a on (1, 2), by bisection, to residual _ROOT_TOL."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.log(mid + 1.0) - 1.0 / mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    a = 0.5 * (lo + hi)
    if abs(math.log(a + 1.0) - 1.0 / a) > _ROOT_TOL:
        raise ArithmeticError("bisection failed to converge")
    return a


def maurey_f(k: int, n: int, p: float = 2.0) -> float:
    """Dyadic entropy shape for an n-term convex hull at stage k.

    2^{-max(k/n, 1)} * min(1, max(log(n/k + 1)/k, 1/n)^{1 - 1/p}).
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if p < 1:
        raise ValueError("p must be at least 1")
    lead = 2.0 ** (-max(k / n, 1.0))
    inner = max(math.log(n / k + 1.0) / k, 1.0 / n)
    return lead * min(1.0, inner ** (1.0 - 1.0 / p))


def maurey_h(k: int, n: int, m: int) -> float:
    """Entropy shape carrying an extra subsampled-row log factor.

    2^{-max(k/n, k/m, 1)} * max(1, sqrt(log(m/k + 1)))
      * min(1, sqrt(max(log(n/k + 1)/k, 1/n))),  for m <= n.
    """
    if k < 1 or n < 1 or m < 1:
        raise ValueError("k, n, m must be positive")
    if m > n:
        raise ValueError("need m <= n")
    lead = 2.0 ** (-max(k / n, k / m, 1.0))
    row = max(1.0, math.sqrt(math.log(m / k + 1.0)))
    inner = max(math.log(n / k + 1.0) / k, 1.0 / n)
    return lead * row * min(1.0, math.sqrt(inner))


def dudley_sparse_bound(s: int, n: int) -> float:
    """Entropy integral shape over the sparse cap: sqrt(s) * log(n)^{3/2}."""
    if not 2 <= s <= n:
        raise ValueError("need 2 <= s <= n")
    if n < 3:
        raise ValueError("need n >= 3")
    return math.sqrt(s) * math.log(n) ** 1.5


def dudley_fourier_bound(s: int, n: int, m: int, norm_t: float) -> float:
    """Entropy integral shape through a linear image with small entries.

    norm_t * sqrt(s) * sqrt(log m) * log(n)^{3/2}, norm_t the
    max-modulus-entry norm of the mapping (1/sqrt(n) for the unitary
    DFT).
    """
    if not 2 <= s <= n:
        raise ValueError("need 2 <= s <= n")
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    if norm_t <= 0:
        raise ValueError("norm_t must be positive")
    return norm_t * math.sqrt(s) * math.sqrt(math.log(m)) * math.log(n) ** 1.5


def gamma2_bound(s1: int, s2: int, mu: float, m: int, n: int) -> float:
    """Chaining functional shape: sqrt((mu*s1 + s2)/m) * log(n)^{5/2}."""
    if min(s1, s2, m, n) < 1:
        raise ValueError("dimensions must be positive")
    if mu < 1:
        raise ValueError("mu must be at least 1")
    if n < 2:
        raise ValueError("need n >= 2")
    return math.sqrt((mu * s1 + s2) / m) * math.log(n) ** 2.5


class SampleComplexity(NamedTuple):
    m_required: int
    feasible: bool


_COMPLEXITY_COMBOS = {
    "plain-left": lambda q: q.s1 + q.mu1 * q.s2,
    "plain-right": lambda q: q.mu2 * q.s1 + q.s2,
    "orthogonal": lambda q: q.mu2 * q.s1 + q.mu1 * q.s2,
}


def sample_complexity(query: BoundQuery, which: str) -> SampleComplexity:
    """Measurements needed for target deviation delta, up to the C knob.

    ceil(C * delta^-2 * combo * log(n)^5) with combo one of
      plain-left   s1 + mu1*s2
      plain-right  mu2*s1 + s2
      orthogonal   mu2*s1 + mu1*s2.
    The feasible flag records whether the count fits under n.
    """
    if which not in _COMPLEXITY_COMBOS:
        raise ValueError(f"unknown variant {which!r}")
    combo = _COMPLEXITY_COMBOS[which](query)
    raw = query.big_c * query.delta**-2 * combo * math.log(query.n) ** 5
    m_req = int(math.ceil(raw))
    return SampleComplexity(m_required=m_req, feasible=m_req <= query.n)


def angle_preservation_bound(delta: float) -> float:
    """Worst-case angle distortion 2*delta*sqrt(1+delta)/(1+sqrt(1-delta)).

    Defined on 0 <= delta < 1 and always at most 2*sqrt(2)*delta.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("need 0 <= delta < 1")
    val = 2.0 * delta * math.sqrt(1.0 + delta) / (1.0 + math.sqrt(1.0 - delta))
    if val > 2.0 * math.sqrt(2.0) * delta + 1e-12:
        raise ArithmeticError("angle bound exceeded its envelope")
    return val


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
