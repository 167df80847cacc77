"""Seed derivation and small shared utilities.

Reproducibility contract: every randomized routine consumes a generator
derived from an integer seed plus a tuple of labels (trial index, grid
cell coordinates, dictionary role). Derivation goes through a fixed
64-bit hash so results do not depend on execution order, worker count,
or grid ordering.

The per-trial and per-half-step paths take vector norms with vnorm,
which evaluates what np.linalg.norm does for a vector, in the same
order, without its Python-level argument handling: a Monte Carlo trial
or a solver half-step takes several norms of short vectors, and that
handling cost more than the arithmetic. Axis norms of matrices keep
np.linalg.norm.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["ZeroVectorError", "derive_seed", "rng_for", "fmt_float", "vnorm",
           "unit", "complex_gaussian"]


class ZeroVectorError(ValueError):
    """A computation met the zero vector where it needs a nonzero one.

    Raised by the zero-vector guards (normalization, flatness,
    initialization from the data, the error metric), which fire on
    degenerate draws or iterates in the middle of a run, and by
    solver.recover when a factor collapsed to zero in every attempt; the
    command line reports it as a numeric failure (exit 3), not as bad
    input.
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


def vnorm(x: np.ndarray) -> float:
    """Euclidean norm of a float or complex array, bit for bit np.linalg.norm(x).

    The same evaluation as np.linalg.norm with ord=None and no axis:
    ravel(order="K"), re.re + im.im by dot products for complex input
    (x.x for real input), then a correctly rounded square root. Takes an
    ndarray of a floating or complex dtype, as the library's vectors are.
    """
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def unit(x: np.ndarray) -> np.ndarray:
    """x scaled to unit Euclidean norm."""
    nrm = vnorm(x)
    if nrm == 0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return x / nrm


def complex_gaussian(rng: np.random.Generator, size) -> np.ndarray:
    """i.i.d. circularly symmetric complex normal entries, unit variance.

    Real and imaginary parts are independent N(0, 1/2), so E|z|^2 = 1.
    One standard_normal call of shape (2, *size) fills its output in
    order, so the real parts are the first half of the stream and the
    imaginary parts the second, as two calls of shape size would give.
    """
    z = rng.standard_normal((2, size) if isinstance(size, (int, np.integer)) else (2, *size))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)
