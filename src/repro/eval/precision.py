"""Shared functional-precision experiment machinery (Figs. 18-19, Table 1).

These experiments run the *real* CKKS implementation (encrypt, evaluate,
decrypt) and measure error-free mantissa bits, ``-log2(max |error|)`` for
unit-range values — the paper's accuracy metric (Sec. 6.5).

Substitutions vs the paper, documented in DESIGN.md: ring degree 2^11
instead of 2^16 (precision depends on scale vs noise, not N; the smaller
N shifts noise by ~half a bit) and dozens instead of a million samples
(wider confidence intervals, same distributions).  The paper compares
28-bit BitPacker against 64-bit RNS-CKKS; we cap the RNS word at 60 bits
— its residues are scale-sized (30-60 bits) either way, only the
keyswitch specials shrink, keeping all arithmetic on the exact fast path.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ckks.context import CkksContext
from repro.eval import runner
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


def sample_values(ctx: CkksContext, rng: np.random.Generator) -> np.ndarray:
    """Uniform values in [-1, 1], the paper's rescale-experiment inputs."""
    return rng.uniform(-1.0, 1.0, ctx.slots)


def precision_bits(decoded: np.ndarray, reference: np.ndarray) -> float:
    """Error-free mantissa bits: ``-log2(max |decoded - reference|)``."""
    err = np.max(np.abs(decoded - reference.astype(np.longdouble)))
    if err == 0:
        return np.inf
    return float(-np.log2(err))


def _sample_params(
    operation: str, scheme: str, scale_bits: float, samples: int,
    n: int, levels: int, seed: int,
) -> dict:
    return {
        "operation": operation, "scheme": scheme,
        "word_bits": PRECISION_WORDS[scheme], "scale_bits": scale_bits,
        "samples": samples, "n": n, "levels": levels, "seed": seed,
    }


def rescale_error_samples(
    scheme: str,
    scale_bits: float,
    samples: int,
    n: int = DEFAULT_N,
    levels: int = DEFAULT_LEVELS,
    seed: int = 7,
) -> list[float]:
    """Paper Fig. 18 methodology: square + rescale, measure precision."""

    def compute() -> list[float]:
        ctx = precision_context(scheme, scale_bits, levels, n)
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(samples):
            values = sample_values(ctx, rng)
            ct = ctx.encrypt(values)
            sq = ctx.evaluator.rescale(ctx.evaluator.square(ct))
            out.append(precision_bits(ctx.decrypt_real(sq), values**2))
        return out

    params = _sample_params("rescale", scheme, scale_bits, samples, n,
                            levels, seed)
    return runner.cached("precision", params, compute)


def adjust_error_samples(
    scheme: str,
    scale_bits: float,
    samples: int,
    n: int = DEFAULT_N,
    levels: int = DEFAULT_LEVELS,
    seed: int = 11,
) -> list[float]:
    """Paper Fig. 19 methodology: adjust by one level, measure precision."""

    def compute() -> list[float]:
        ctx = precision_context(scheme, scale_bits, levels, n)
        rng = np.random.default_rng(seed)
        top = ctx.chain.max_level
        out = []
        for _ in range(samples):
            values = sample_values(ctx, rng)
            ct = ctx.encrypt(values)
            adj = ctx.evaluator.adjust(ct, top - 1)
            out.append(precision_bits(ctx.decrypt_real(adj), values))
        return out

    params = _sample_params("adjust", scheme, scale_bits, samples, n,
                            levels, seed)
    return runner.cached("precision", params, compute)


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
