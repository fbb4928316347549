"""Fig. 16: gmean execution time x area across word sizes.

Iso-throughput designs with wider words are larger (multipliers scale
quadratically), so even BitPacker's flat time curve trends upward once
multiplied by area; RNS-CKKS at 64 bits ends up ~2.5x worse in
performance/area than BitPacker at 28 bits, the paper's argument that
BitPacker makes narrow datapaths the best design point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.area import DEFAULT_AREA_MODEL
from repro.accel.config import craterlake
from repro.eval import fig14
from repro.eval.common import format_table, gmean


@dataclass(frozen=True)
class Fig16Row:
    word_bits: int
    area_mm2: float
    bitpacker_norm: float
    rns_ckks_norm: float


def run(word_sizes=fig14.DEFAULT_WORD_SIZES) -> list[Fig16Row]:
    # Derived view: consumes fig14's (runner-cached) sweep plus the area
    # model, so after a fig14 run this figure performs no simulations.
    series = fig14.run(word_sizes)
    word_sizes = tuple(word_sizes)
    areas = [
        DEFAULT_AREA_MODEL.total_area(craterlake().with_word_size(w))
        for w in word_sizes
    ]
    bp_ta = []
    rns_ta = []
    for idx in range(len(word_sizes)):
        bp_ta.append(gmean(s.bitpacker_ms[idx] for s in series) * areas[idx])
        rns_ta.append(gmean(s.rns_ckks_ms[idx] for s in series) * areas[idx])
    baseline = bp_ta[0]  # BitPacker at the narrowest word
    return [
        Fig16Row(
            word_bits=w,
            area_mm2=areas[i],
            bitpacker_norm=bp_ta[i] / baseline,
            rns_ckks_norm=rns_ta[i] / baseline,
        )
        for i, w in enumerate(word_sizes)
    ]


def render(rows: list[Fig16Row]) -> str:
    table = format_table(
        ["word [bits]", "area [mm^2]", "BitPacker (time x area)", "RNS-CKKS"],
        [
            [r.word_bits, f"{r.area_mm2:.1f}", f"{r.bitpacker_norm:.2f}",
             f"{r.rns_ckks_norm:.2f}"]
            for r in rows
        ],
    )
    at64 = next((r for r in rows if r.word_bits == 64), rows[-1])
    return (
        "Fig. 16 — gmean execution time x area, normalized to BitPacker "
        "at 28 bits (lower is better)\n"
        f"{table}\n"
        f"RNS-CKKS at 64 bits: {at64.rns_ckks_norm:.2f}x (paper: ~2.5x); "
        "28-bit BitPacker is the most efficient point"
    )
