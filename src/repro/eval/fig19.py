"""Fig. 19: adjust error distributions, 28-bit BitPacker vs RNS-CKKS.

Same methodology as Fig. 18 but measuring a one-level adjust (the Kim
et al. reduced-error variant for RNS-CKKS, ``bpAdjust`` for BitPacker).
"""

from __future__ import annotations

from repro.eval import fig18
from repro.eval.fig18 import DEFAULT_SCALES, PrecisionRow
from repro.eval.precision import adjust_error_samples


def run(
    scales=DEFAULT_SCALES, samples: int = 30, n: int = 2048, seed: int = 11,
) -> list[PrecisionRow]:
    return fig18.sweep(adjust_error_samples, scales, samples, n, seed)


def render(rows: list[PrecisionRow]) -> str:
    return fig18.render(rows, figure="19", operation="adjust")
