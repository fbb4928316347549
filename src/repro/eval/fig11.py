"""Fig. 11: execution time, BitPacker vs RNS-CKKS, 28-bit CraterLake.

Ten workloads (five applications x {BS19, BS26}); the paper reports a
gmean 59% speedup for BitPacker (i.e. RNS-CKKS normalized time ~1.59)
with larger gains for the small-scale workloads (SqueezeNet, LogReg).
"""

from __future__ import annotations

from repro.eval.common import (
    ComparisonRow,
    format_table,
    gmean,
    simulate,
    time_comparison,
)


def run() -> list[ComparisonRow]:
    return time_comparison(simulate)


def render(rows: list[ComparisonRow]) -> str:
    table = format_table(
        ["benchmark", "BitPacker [ms]", "RNS-CKKS [ms]", "normalized (RNS/BP)"],
        [
            [
                r.label,
                f"{r.bitpacker * 1e3:.1f}",
                f"{r.rns_ckks * 1e3:.1f}",
                f"{r.ratio:.2f}",
            ]
            for r in rows
        ],
    )
    g = gmean(r.ratio for r in rows)
    return (
        "Fig. 11 — execution time on 28-bit CraterLake (lower is better, "
        "BitPacker = 1.0)\n"
        f"{table}\n"
        f"gmean RNS-CKKS normalized time: {g:.2f} (paper: ~1.59)"
    )
