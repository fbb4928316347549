"""Sec. 6.2's SHARP comparison: 28-bit BitPacker vs a 36-bit RNS design.

SHARP's contribution is tuning the word size to 36 bits for RNS-CKKS;
the paper shows BitPacker at 28-bit words is still gmean 43% faster than
the SHARP-like point and improves EDP by 2.2x, without SHARP's
application-scale restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import runner
from repro.eval.common import (
    WORKLOAD_GRID,
    WORKLOAD_POINTS,
    WorkloadRow,
    format_table,
    gmean,
    simulate,
)


@dataclass(frozen=True)
class SharpRow(WorkloadRow):
    bp28_ms: float
    sharp36_ms: float
    speedup: float
    edp_ratio: float


def run() -> list[SharpRow]:
    results = runner.map_variants(simulate, WORKLOAD_POINTS, (
        dict(scheme="bitpacker", word_bits=28),
        dict(scheme="rns-ckks", word_bits=36),
    ))
    return [
        SharpRow(
            app=app,
            bs=bs,
            bp28_ms=bp.time_ms,
            sharp36_ms=sharp.time_ms,
            speedup=sharp.time_s / bp.time_s,
            edp_ratio=sharp.edp / bp.edp,
        )
        for (app, bs), (bp, sharp) in zip(WORKLOAD_GRID, results)
    ]


def render(rows: list[SharpRow]) -> str:
    table = format_table(
        ["benchmark", "BP@28 [ms]", "SHARP-like@36 [ms]", "speedup", "EDP"],
        [
            [r.label, f"{r.bp28_ms:.1f}", f"{r.sharp36_ms:.1f}",
             f"{r.speedup:.2f}x", f"{r.edp_ratio:.2f}x"]
            for r in rows
        ],
    )
    return (
        "Sec. 6.2 — 28-bit BitPacker vs 36-bit SHARP-like RNS design\n"
        f"{table}\n"
        f"gmean speedup: {gmean(r.speedup for r in rows):.2f}x (paper: 1.43x); "
        f"gmean EDP: {gmean(r.edp_ratio for r in rows):.2f}x (paper: 2.2x)"
    )
