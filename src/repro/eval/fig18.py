"""Fig. 18: rescale error distributions, 28-bit BitPacker vs RNS-CKKS.

Squares and rescales ciphertexts with values uniform in [-1, 1] at scales
from 30 to 60 bits and reports box-and-whisker statistics of error-free
mantissa bits.  The paper's claim: BitPacker's distributions differ from
RNS-CKKS's by less than the 0.5-bit moduli-selection margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.eval import runner
from repro.eval.common import SCHEMES, format_table
from repro.eval.precision import box_stats, rescale_error_samples

DEFAULT_SCALES = (30.0, 40.0, 50.0, 60.0)


@dataclass(frozen=True)
class PrecisionRow:
    scale_bits: float
    scheme: str
    stats: dict
    samples: int


def run(
    scales=DEFAULT_SCALES, samples: int = 30, n: int = 2048, seed: int = 7,
) -> list[PrecisionRow]:
    return sweep(rescale_error_samples, scales, samples, n, seed)


def sweep(
    sampler: Callable, scales, samples: int, n: int, seed: int,
) -> list[PrecisionRow]:
    """One row per scale x scheme, from ``sampler``'s precision samples
    (a :mod:`repro.eval.precision` ``*_error_samples`` function)."""
    scales = tuple(scales)
    results = runner.map_variants(
        sampler,
        [dict(scale_bits=scale) for scale in scales],
        [dict(scheme=s, samples=samples, n=n, seed=seed) for s in SCHEMES],
    )
    return [
        PrecisionRow(
            scale_bits=scale, scheme=scheme, stats=box_stats(data),
            samples=samples,
        )
        for scale, point in zip(scales, results)
        for scheme, data in zip(SCHEMES, point)
    ]


def render(rows: list[PrecisionRow], figure: str = "18",
           operation: str = "rescale") -> str:
    table = format_table(
        ["scale [bits]", "scheme", "min", "q1", "median", "q3", "max"],
        [
            [
                f"{r.scale_bits:.0f}",
                r.scheme,
                f"{r.stats['min']:.1f}",
                f"{r.stats['q1']:.1f}",
                f"{r.stats['median']:.1f}",
                f"{r.stats['q3']:.1f}",
                f"{r.stats['max']:.1f}",
            ]
            for r in rows
        ],
    )
    deltas = []
    for scale in sorted({r.scale_bits for r in rows}):
        pair = {r.scheme: r for r in rows if r.scale_bits == scale}
        if len(pair) == 2:
            deltas.append(
                abs(pair["bitpacker"].stats["median"]
                    - pair["rns-ckks"].stats["median"])
            )
    worst = max(deltas) if deltas else float("nan")
    return (
        f"Fig. {figure} — {operation} precision distributions "
        "(error-free mantissa bits; higher is better)\n"
        f"{table}\n"
        f"largest median gap between schemes: {worst:.2f} bits "
        "(paper: within the 0.5-bit moduli-selection margin)"
    )
