"""Fig. 14: execution time vs hardware word size, per application.

The paper's iso-throughput sweep from 28- to 64-bit words: BitPacker's
time is flat (it always packs residues to the word), while RNS-CKKS shows
peaks and valleys about 2x apart — valleys where the word size happens to
match one of the program's scales, peaks where none fit well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import runner
from repro.eval.common import (
    SCHEMES,
    WORKLOAD_GRID,
    WORKLOAD_POINTS,
    WorkloadRow,
    format_table,
    simulate,
)

#: The sweep's word sizes (paper: 28 to 64 bits).
DEFAULT_WORD_SIZES = tuple(range(28, 65, 4))


@dataclass(frozen=True)
class Fig14Series(WorkloadRow):
    word_sizes: tuple[int, ...]
    bitpacker_ms: tuple[float, ...]
    rns_ckks_ms: tuple[float, ...]

    @property
    def bp_flatness(self) -> float:
        """Max/min ratio of the BitPacker curve (paper: ~1.0, flat)."""
        return max(self.bitpacker_ms) / min(self.bitpacker_ms)

    @property
    def rns_unevenness(self) -> float:
        """Max/min ratio of the RNS-CKKS curve (paper: ~2x)."""
        return max(self.rns_ckks_ms) / min(self.rns_ckks_ms)


def run(
    word_sizes=DEFAULT_WORD_SIZES, ks_digits: int = 3,
    max_log_q: float = 1596.0,
) -> list[Fig14Series]:
    word_sizes = tuple(word_sizes)
    # Variants alternate BitPacker, RNS-CKKS at each word size in turn.
    results = runner.map_variants(simulate, WORKLOAD_POINTS, [
        dict(scheme=s, word_bits=w, ks_digits=ks_digits, max_log_q=max_log_q)
        for w in word_sizes
        for s in SCHEMES
    ])
    return [
        Fig14Series(
            app=app,
            bs=bs,
            word_sizes=word_sizes,
            bitpacker_ms=tuple(r.time_ms for r in point[0::2]),
            rns_ckks_ms=tuple(r.time_ms for r in point[1::2]),
        )
        for (app, bs), point in zip(WORKLOAD_GRID, results)
    ]


def render(series: list[Fig14Series]) -> str:
    blocks = []
    for s in series:
        table = format_table(
            ["word [bits]", "BitPacker [ms]", "RNS-CKKS [ms]"],
            [
                [w, f"{b:.1f}", f"{r:.1f}"]
                for w, b, r in zip(s.word_sizes, s.bitpacker_ms, s.rns_ckks_ms)
            ],
        )
        blocks.append(
            f"{s.label}\n{table}\n"
            f"  BitPacker max/min: {s.bp_flatness:.2f} (paper: flat, ~1.0); "
            f"RNS-CKKS max/min: {s.rns_unevenness:.2f} (paper: ~2x)"
        )
    return "Fig. 14 — execution time vs word size\n\n" + "\n\n".join(blocks)
