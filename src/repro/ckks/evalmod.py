"""Homomorphic modular reduction (EvalMod) — bootstrapping's core step.

Bootstrapping's expensive middle stage evaluates ``x mod 1`` on values of
the form ``k + ε`` (integer multiples of the base modulus plus the
message) by approximating ``sin(2πx)/(2π) ≈ ε`` with a polynomial
(paper Sec. 2.2; Lattigo's BS19/BS26 do exactly this at degree ~63).

This module implements that step *genuinely homomorphically* on top of
:mod:`repro.ckks.polyeval`: a Chebyshev approximation of the scaled sine
evaluated on ciphertexts.  It upgrades part of DESIGN.md's bootstrap
substitution from "re-encrypt with a noise floor" to real homomorphic
computation — the remaining pieces (CoeffToSlot/SlotToCoeff) are linear
transforms available in :mod:`repro.ckks.linalg`.

The cost model of a full bootstrap (op counts, scales) remains in
:mod:`repro.workloads.bootstrap_model`; this module is about functional
fidelity at laptop-scale parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.polyeval import chebyshev_fit, eval_chebyshev
from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckks.evaluator import Evaluator


@dataclass(frozen=True)
class EvalModConfig:
    """Parameters of the sine-based modular reduction.

    ``k_range``: inputs live in ``[-k_range - 0.5, k_range + 0.5]``
    (i.e. up to ``k_range`` wrap-arounds — bootstrapping's sparse-secret
    bound on the coefficient overflow count).
    ``degree``: Chebyshev degree of the sine approximation; Lattigo uses
    ~63 at full scale, small parameters need far less.
    """

    k_range: int = 2
    degree: int = 15

    @property
    def half_width(self) -> float:
        return self.k_range + 0.5


@lru_cache(maxsize=32)
def sine_coefficients(config: EvalModConfig) -> tuple[float, ...]:
    """Chebyshev coefficients of ``sin(2πKx)/(2π)`` on [-1, 1].

    The argument is pre-normalized by ``K = k_range + 0.5`` so the
    polynomial is evaluated on the Chebyshev-friendly interval.
    """
    k = config.half_width

    def target(t):
        return math.sin(2.0 * math.pi * k * t) / (2.0 * math.pi)

    coeffs = chebyshev_fit(np.vectorize(target), config.degree)
    # The target is odd: its even terms are interpolation dust (~1e-17),
    # and an exact zero is what lets the evaluator skip them.
    coeffs[0::2] = 0.0
    return tuple(float(c) for c in coeffs)


def eval_mod(
    ev: "Evaluator",
    ct: Ciphertext,
    config: EvalModConfig = EvalModConfig(),
    input_factor: float = 1.0,
    output_factor: float = 1.0,
) -> Ciphertext:
    """Homomorphically reduce ``k + ε`` to ``ε`` (``|ε|`` small).

    Computes ``output_factor · sin(2π·input_factor·x)/(2π)``: the slots
    of ``input_factor · ct`` must lie within ``±(k_range + 0.5)``, and
    the output approximates their fractional part around the nearest
    integer, with error ``O(ε³)`` from the sine linearization plus the
    Chebyshev fit error.  Both factors cost nothing: the first rides the
    ``1/K`` normalization multiply, the second the Chebyshev
    coefficients, ahead of the leaves' weighted-sum rescales.
    """
    if config.degree < 3:
        raise ParameterError("sine approximation needs degree >= 3")
    # Normalize to [-1, 1] for the Chebyshev basis.
    normalized = ev.rescale(ev.mul_plain(ct, input_factor / config.half_width))
    coeffs = [output_factor * c for c in sine_coefficients(config)]
    return eval_chebyshev(ev, normalized, coeffs)


def depth_required(config: EvalModConfig = EvalModConfig()) -> int:
    """Levels ``eval_mod`` consumes.

    One for the normalization multiply and ``⌈log2 degree⌉ + 1`` for
    :func:`~repro.ckks.polyeval.eval_chebyshev`, which lands there
    exactly even where its baby-step/giant-step split needs a level less.
    """
    return (config.degree - 1).bit_length() + 2
