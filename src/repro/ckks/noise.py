"""Analytic noise estimation for CKKS schedules.

Estimates the (log2) standard deviation of the decoded slot error
alongside the operations a program performs, using the standard
canonical-embedding heuristics (Cheon et al., Kim et al.).  This is the
planning companion to the exact measurements of the precision
experiments: it answers "how many error-free bits should I expect?"
before anything runs, and it documents where each operation's error
comes from.

Every rule is one quadrature join (:func:`join_bits`,
``max + 0.5*log2(1 + 4^(min - max))``) of the incoming error against a
per-level term: the fresh-encryption error, the rounding floor of one
rescale, or the keyswitch error.  :func:`noise_tables` returns those
three per-level tables (fresh, floor, keyswitch); the static verifier
(:mod:`repro.analysis.absint`) applies the rules, so this module and
that loop are the one copy of them.

The estimates are deliberately simple (heuristic constants, no
ring-expansion factors beyond ``sqrt(n)``).  Tier-1 holds them against
measured decrypts at the test ring size (n = 256): the predicted bits
sit at most 1 bit above the measured ones.  At larger n the model is
optimistic, by about 2.3 bits at n = 2^10 and 6 bits at n = 2^16, a
gap that grows with n (ROADMAP item 23).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.rns.sampling import DEFAULT_SIGMA


def precision_bits(log2_error: float) -> float:
    """Error-free mantissa bits of a value-domain error of std
    ``2^log2_error``, with a ~3-sigma tail allowance."""
    return -log2_error - 2.0


def join_bits(a: float, b: float) -> float:
    """Two independent errors (log2 std) added in quadrature: the larger
    plus ``0.5*log2(1 + 4^(smaller - larger))``."""
    if a < b:
        a, b = b, a
    return a + 0.5 * math.log2(1.0 + 4.0 ** (b - a))


def noise_tables(
    n: int, level_scale_bits: Sequence[float]
) -> tuple[tuple[float, ...], ...]:
    """The per-level noise terms ``(fresh, floor, keyswitch)`` (log2
    std) of a ring of degree ``n`` whose level ``l`` is canonical at
    scale ``2^level_scale_bits[l]`` (level 0 first): a trace's scale
    targets or a planned chain's scales.  Errors are sampled at
    :data:`~repro.rns.sampling.DEFAULT_SIGMA`."""
    sqrt_n_bits = 0.5 * math.log2(n)
    # Public-key encryption error is ``e0 + u*e + s*e1``: the ternary
    # convolutions give std ~ sigma * sqrt(4n/3), and taking the max
    # over n coefficients (what error-free *bits* measure) adds another
    # ~sqrt(2 ln n) factor -- together ~3 bits beyond sigma * sqrt(n).
    coeff_error_bits = math.log2(DEFAULT_SIGMA) + sqrt_n_bits + 3.0
    # A fresh encryption at each level's scale.
    fresh = tuple(coeff_error_bits - s for s in level_scale_bits)
    # One rounded division by the scale leaves ~sqrt(n/12) coefficient
    # units over the scale.
    floor = tuple(sqrt_n_bits - 1.5 - s + 2.0 for s in level_scale_bits)
    # Hybrid keyswitch noise after the mod-down by P: roughly a few
    # rounding units (the rescale floor's order).
    keyswitch = tuple(f + 1.0 for f in floor)
    return fresh, floor, keyswitch
