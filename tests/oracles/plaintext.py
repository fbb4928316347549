"""Cleartext results the homomorphic routines approximate."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def reference_eval_mod(values: np.ndarray) -> np.ndarray:
    """``sin(2πx)/(2π)`` (≈ distance to nearest int): what
    :func:`repro.ckks.evalmod.eval_mod` approximates."""
    return np.sin(2.0 * np.pi * values) / (2.0 * np.pi)


def reference_chebyshev(coeffs: Sequence[float], x: np.ndarray) -> np.ndarray:
    """The Chebyshev series :func:`repro.ckks.polyeval.eval_chebyshev`
    evaluates homomorphically."""
    return np.polynomial.chebyshev.chebval(x, np.asarray(coeffs, dtype=float))


def reference_matvec(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``matrix`` applied to each ``dimension``-long block of the slot
    vector ``values``: the packing :class:`repro.ckks.linalg.PlainMatrix`
    computes on."""
    d = len(matrix)
    return (values.reshape(-1, d) @ np.asarray(matrix).T).reshape(-1)
