"""Fig. 11: execution time, BitPacker vs RNS-CKKS, 28-bit CraterLake.

Ten workloads (five applications x {BS19, BS26}); the paper reports a
gmean 59% speedup for BitPacker (i.e. RNS-CKKS normalized time ~1.59)
with larger gains for the small-scale workloads (SqueezeNet, LogReg).
"""

from __future__ import annotations

from repro.eval import runner
from repro.eval.common import (
    SCHEMES,
    WORKLOAD_GRID,
    ComparisonRow,
    format_table,
    gmean,
    simulate,
)


def run(word_bits: int = 28, ks_digits: int = 3, max_log_q: float = 1596.0,
        compiled: bool = False) -> list[ComparisonRow]:
    calls = [
        dict(app=app, bs=bs, scheme=scheme, word_bits=word_bits,
             ks_digits=ks_digits, max_log_q=max_log_q, compiled=compiled)
        for app, bs in WORKLOAD_GRID
        for scheme in SCHEMES
    ]
    results = runner.map_grid(simulate, calls)
    rows = []
    for index, (app, bs) in enumerate(WORKLOAD_GRID):
        bp, rns = results[2 * index], results[2 * index + 1]
        rows.append(
            ComparisonRow(app=app, bs=bs, bitpacker=bp.time_s, rns_ckks=rns.time_s)
        )
    return rows


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
