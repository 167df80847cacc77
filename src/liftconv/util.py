"""Seed derivation and small shared utilities.

Reproducibility contract: every randomized routine consumes a generator
derived from an integer seed plus a tuple of labels (trial index, grid
cell coordinates, dictionary role). Derivation goes through a fixed
64-bit hash so results do not depend on execution order, worker count,
or grid ordering.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["ZeroVectorError", "derive_seed", "rng_for", "fmt_float", "unit",
           "complex_gaussian"]


class ZeroVectorError(ValueError):
    """A computation met the zero vector where it needs a nonzero one.

    Raised by the zero-vector guards (normalization, flatness,
    initialization from the data, the error metric), which fire on
    degenerate draws or iterates in the middle of a run; the command
    line reports it as a numeric failure, not as bad input.
    """


def _canon(part) -> str:
    if isinstance(part, (bool, np.bool_)):
        return "b%d" % int(part)
    if isinstance(part, (int, np.integer)):
        return "i%d" % int(part)
    if isinstance(part, (float, np.floating)):
        return "f" + format(float(part), ".17g")
    if part is None:
        return "none"
    return "s" + str(part)


def derive_seed(base: int, *parts) -> int:
    """Mix a base seed with labels into a stable 63-bit seed."""
    h = hashlib.blake2b(digest_size=8)
    h.update(_canon(base).encode())
    for part in parts:
        h.update(b"|")
        h.update(_canon(part).encode())
    return int.from_bytes(h.digest(), "little") >> 1


def rng_for(base: int, *parts) -> np.random.Generator:
    """Generator seeded by derive_seed(base, *parts)."""
    return np.random.default_rng(derive_seed(base, *parts))


def fmt_float(x) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))


def unit(x: np.ndarray) -> np.ndarray:
    """x scaled to unit Euclidean norm."""
    nrm = np.linalg.norm(x)
    if nrm == 0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return x / nrm


def complex_gaussian(rng: np.random.Generator, size) -> np.ndarray:
    """i.i.d. circularly symmetric complex normal entries, unit variance.

    Real and imaginary parts are independent N(0, 1/2), so E|z|^2 = 1.
    """
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)
