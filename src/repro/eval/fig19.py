"""Fig. 19: adjust error distributions, 28-bit BitPacker vs RNS-CKKS.

Same methodology as Fig. 18 but measuring a one-level adjust (the Kim
et al. reduced-error variant for RNS-CKKS, ``bpAdjust`` for BitPacker).
"""

from __future__ import annotations

from repro.eval import runner
from repro.eval.common import SCHEMES
from repro.eval.fig18 import DEFAULT_SCALES, PrecisionRow
from repro.eval.fig18 import render as _render
from repro.eval.precision import adjust_error_samples, box_stats


def run(
    scales=DEFAULT_SCALES, samples: int = 30, n: int = 2048, seed: int = 11,
) -> list[PrecisionRow]:
    points = [(scale, scheme) for scale in scales for scheme in SCHEMES]
    calls = [
        dict(scheme=scheme, scale_bits=scale, samples=samples, n=n, seed=seed)
        for scale, scheme in points
    ]
    data = runner.map_grid(adjust_error_samples, calls)
    return [
        PrecisionRow(
            scale_bits=scale, scheme=scheme, stats=box_stats(samples_list),
            samples=samples,
        )
        for (scale, scheme), samples_list in zip(points, data)
    ]


def render(rows: list[PrecisionRow]) -> str:
    return _render(rows, figure="19", operation="adjust")
