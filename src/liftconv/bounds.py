"""Closed-form entropy and sample-complexity calculators.

Natural logarithms throughout. Every leading constant the analysis
leaves unnamed enters as an explicit factor of 1 times a user knob C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
]


@dataclass(frozen=True)
class BoundQuery:
    """Inputs to the bound calculators, validated once; n >= 2, as they take log n."""

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
        if self.n < 2:
            raise ValueError("need n >= 2")
        if max(self.m, self.s1, self.s2) > self.n:
            raise ValueError("need m, s1 and s2 <= n")
        if not (1 <= self.mu1 <= self.n and 1 <= self.mu2 <= self.n):
            raise ValueError("flatness caps must lie in [1, n]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.big_c <= 0:
            raise ValueError("C must be positive")


def solve_a() -> float:
    """Root of log(a + 1) = 1/a on (1, 2), by bisection.

    Bisects until the midpoint equals an endpoint, where the bracket is
    two adjacent doubles (about 52 steps), with a residual within rounding
    of zero.
    """
    lo, a, hi = 1.0, 1.5, 2.0
    while lo < a < hi:
        if math.log(a + 1.0) - 1.0 / a < 0.0:
            lo = a
        else:
            hi = a
        a = 0.5 * (lo + hi)
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

    Defined on 0 <= delta < 1 and at most 2*sqrt(2)*delta there, as
    sqrt(1+delta) <= sqrt(2) and 1+sqrt(1-delta) >= 1.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("need 0 <= delta < 1")
    return 2.0 * delta * math.sqrt(1.0 + delta) / (1.0 + math.sqrt(1.0 - delta))
