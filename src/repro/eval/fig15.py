"""Fig. 15: gmean/max/min RNS-CKKS slowdown vs BitPacker across word sizes.

Summarizes Fig. 14 over all ten workloads.  The paper reports that
RNS-CKKS is inefficient everywhere, that wider words suffer more, and in
particular a gmean 2.18x slowdown at 64 bits (ARK-like) vs 1.59x at 28.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import fig14
from repro.eval.common import format_table, gmean


@dataclass(frozen=True)
class Fig15Row:
    word_bits: int
    gmean_slowdown: float
    max_slowdown: float
    min_slowdown: float


def run(word_sizes=fig14.DEFAULT_WORD_SIZES) -> list[Fig15Row]:
    # Derived view: consumes fig14's memoized sweep, so after a
    # fig14 run this figure performs no simulations of its own.
    series = fig14.run(word_sizes)
    word_sizes = series[0].word_sizes  # ``word_sizes`` may be a generator
    rows = []
    for idx, w in enumerate(word_sizes):
        ratios = [s.rns_ckks_ms[idx] / s.bitpacker_ms[idx] for s in series]
        rows.append(
            Fig15Row(
                word_bits=w,
                gmean_slowdown=gmean(ratios),
                max_slowdown=max(ratios),
                min_slowdown=min(ratios),
            )
        )
    return rows


def render(rows: list[Fig15Row]) -> str:
    table = format_table(
        ["word [bits]", "gmean", "max", "min"],
        [
            [r.word_bits, f"{r.gmean_slowdown:.2f}", f"{r.max_slowdown:.2f}",
             f"{r.min_slowdown:.2f}"]
            for r in rows
        ],
    )
    at64 = next((r for r in rows if r.word_bits == 64), rows[-1])
    return (
        "Fig. 15 — RNS-CKKS slowdown vs BitPacker across word sizes\n"
        f"{table}\n"
        f"gmean slowdown at 64 bits: {at64.gmean_slowdown:.2f} (paper: 2.18)"
    )
