"""Flat parameter-vector arithmetic shared by every other module.

Parameter vectors are 1-D float64 numpy arrays, frozen read-only once they
become part of trajectory state. All operations are pure.
"""

from __future__ import annotations

import math

import numpy as np


class DimensionError(ValueError):
    """Operands of an elementwise operation have mismatched lengths."""


class DegenerateVectorError(ValueError):
    """A zero-norm vector where a direction is required."""


class NonFiniteError(ValueError):
    """NaN/Inf reached a place that requires finite values."""


def freeze(x: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it (no copy)."""
    x.flags.writeable = False
    return x


def _check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")


def l2_norm(x: np.ndarray) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(x))


def affine_combination(base: np.ndarray, coeffs, directions) -> np.ndarray:
    """base + c_1 * d_1 + c_2 * d_2 + ..., added left to right into one new array."""
    out = np.multiply(coeffs[0], directions[0])
    np.add(base, out, out=out)  # base + c_1 * d_1: addition commutes exactly
    for c, d in zip(coeffs[1:], directions[1:]):
        out += c * d
    return out


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """(a.b) / (|a||b|), in [-1, 1].

    Raises DegenerateVectorError on a zero-norm input rather than silently
    returning 0.
    """
    _check_same_length(a, b)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateVectorError("cosine similarity of a zero-norm vector")
    s = float(np.dot(a, b) / (na * nb))
    # rounding can push |s| a hair past 1
    return max(-1.0, min(1.0, s))


def is_finite(x: np.ndarray) -> bool:
    """True iff every element is finite.

    A finite sum proves every element finite, since a NaN or an infinity
    carries through any sum. A non-finite sum may also come from finite
    elements whose sum overflows, so only then is every element tested.
    numpy reports that overflow, or an inf - inf in the sum, as a
    floating-point error under its error state (a RuntimeWarning by
    default); only arrays that already hold huge or non-finite values
    can cause one. np.add.reduce is the sum that ndarray.sum wraps, called
    without the wrapper, since training checks two vectors every step.
    """
    return math.isfinite(np.add.reduce(x, axis=None)) or bool(np.all(np.isfinite(x)))
