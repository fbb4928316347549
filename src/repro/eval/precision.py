"""Shared functional-precision experiment machinery (Figs. 18-19, Table 1).

These experiments run the *real* CKKS implementation (encrypt, evaluate,
decrypt) and measure error-free mantissa bits, ``-log2(max |error|)`` for
unit-range values — the paper's accuracy metric (Sec. 6.5).

Substitutions vs the paper, documented in DESIGN.md: ring degree 2^11
instead of 2^16 and dozens instead of a million samples (wider
confidence intervals).  The ring size costs bits: at a 40-bit scale,
square + rescale read 24.9/24.8 bits (bp28/rns60) at n = 2^11 and
19.4/19.2 at n = 2^16 (3 samples each), while the scheme gap stayed
within 0.2 bits; a paper-N table with >= 10 samples per point is still
open.  The paper compares 28-bit BitPacker against 64-bit RNS-CKKS; we
cap the RNS word at 60 bits — its residues are scale-sized (30-60 bits)
either way, only the keyswitch specials shrink, keeping all arithmetic
on the exact fast path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.ckks.context import CkksContext
from repro.schemes import plan_chain

#: Word sizes per scheme for the precision comparison (see module doc).
PRECISION_WORDS = {"bitpacker": 28, "rns-ckks": 60}
DEFAULT_LEVELS = 10
DEFAULT_N = 2048


@lru_cache(maxsize=None)
def _precision_chain(
    scheme: str, scale_bits: float, levels: int, n: int, ks_digits: int
):
    return plan_chain(
        scheme,
        n=n,
        word_bits=PRECISION_WORDS[scheme],
        level_scale_bits=float(scale_bits),
        levels=levels,
        base_bits=60.0,
        ks_digits=ks_digits,
    )


def precision_context(
    scheme: str,
    scale_bits: float,
    levels: int = DEFAULT_LEVELS,
    n: int = DEFAULT_N,
    ks_digits: int = 2,
    seed: int = 1234,
) -> CkksContext:
    """A freshly keyed CKKS context for one (scheme, scale) point.

    Only the planned chain is memoized.  The context's ``rng`` is
    consumed by every encryption and lazy keygen, so a shared context
    would make a point's samples depend on which points ran before it.
    """
    chain = _precision_chain(scheme, scale_bits, levels, n, ks_digits)
    return CkksContext(chain, seed=seed)


def _error_samples(
    scheme: str, scale_bits: float, samples: int, n: int, levels: int,
    seed: int, operation: Callable,
) -> list[float]:
    """Encrypt fresh samples uniform in [-1, 1] (the paper's inputs),
    apply ``operation(ctx, ct, values)`` (which returns the result and
    its exact value), and measure each result's precision."""
    ctx = precision_context(scheme, scale_bits, levels, n)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        values = rng.uniform(-1.0, 1.0, ctx.slots)
        result, expected = operation(ctx, ctx.encrypt(values), values)
        out.append(ctx.precision_bits(result, expected))
    return out


def rescale_error_samples(
    scheme: str,
    scale_bits: float,
    samples: int,
    n: int = DEFAULT_N,
    levels: int = DEFAULT_LEVELS,
    seed: int = 7,
) -> list[float]:
    """Paper Fig. 18 methodology: square + rescale, measure precision."""
    return _error_samples(
        scheme, scale_bits, samples, n, levels, seed,
        lambda ctx, ct, values: (
            ctx.evaluator.rescale(ctx.evaluator.square(ct)), values**2),
    )


def adjust_error_samples(
    scheme: str,
    scale_bits: float,
    samples: int,
    n: int = DEFAULT_N,
    levels: int = DEFAULT_LEVELS,
    seed: int = 11,
) -> list[float]:
    """Paper Fig. 19 methodology: adjust by one level, measure precision."""
    return _error_samples(
        scheme, scale_bits, samples, n, levels, seed,
        lambda ctx, ct, values: (
            ctx.evaluator.adjust(ct, ctx.chain.max_level - 1), values),
    )


def box_stats(samples: list[float]) -> dict[str, float]:
    """The box-and-whisker statistics the paper plots."""
    arr = np.sort(np.asarray(samples, dtype=float))
    return {
        "min": float(arr[0]),
        "q1": float(np.percentile(arr, 25)),
        "median": float(np.percentile(arr, 50)),
        "q3": float(np.percentile(arr, 75)),
        "max": float(arr[-1]),
    }
