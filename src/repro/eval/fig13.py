"""Fig. 13: execution time on a CPU with 64-bit words.

On CPUs 64-bit words are the right choice, RNS-CKKS uses one residue per
scale, and NTTs (linear in R) dominate without a CRB-style unit — so
BitPacker's gain shrinks to the residue-count ratio: gmean ~24% in the
paper, far below the accelerator's 59%.
"""

from __future__ import annotations

from repro.eval.common import (
    ComparisonRow,
    format_table,
    gmean,
    simulate_cpu,
    time_comparison,
)


def run(word_bits: int = 64, ks_digits: int = 3) -> list[ComparisonRow]:
    return time_comparison(
        simulate_cpu, word_bits=word_bits, ks_digits=ks_digits)


def render(rows: list[ComparisonRow]) -> str:
    table = format_table(
        ["benchmark", "BitPacker [s]", "RNS-CKKS [s]", "normalized (RNS/BP)"],
        [
            [r.label, f"{r.bitpacker:.1f}", f"{r.rns_ckks:.1f}", f"{r.ratio:.2f}"]
            for r in rows
        ],
    )
    g = gmean(r.ratio for r in rows)
    return (
        "Fig. 13 — CPU execution time, 64-bit words (BitPacker = 1.0)\n"
        f"{table}\n"
        f"gmean RNS-CKKS normalized time: {g:.2f} (paper: ~1.24)"
    )
