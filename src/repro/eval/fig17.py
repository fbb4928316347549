"""Fig. 17: gmean execution time vs register-file (scratchpad) capacity.

On the 28-bit machine, RNS-CKKS plateaus at 256 MB and slows by over 3x
at 150 MB; BitPacker's smaller ciphertexts keep it flat down to ~200 MB
with only a ~70% slowdown at 150 MB — the basis of Sec. 6.3's area
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import runner
from repro.eval.common import (
    SCHEMES,
    WORKLOAD_POINTS,
    format_table,
    gmean,
    simulate,
)

DEFAULT_SIZES_MB = (150.0, 175.0, 200.0, 225.0, 256.0, 300.0, 350.0)

BASELINE_MB = 256.0


@dataclass(frozen=True)
class Fig17Row:
    register_file_mb: float
    bitpacker_norm: float
    rns_ckks_norm: float


def run(sizes_mb=DEFAULT_SIZES_MB, word_bits: int = 28) -> list[Fig17Row]:
    sizes_mb = tuple(sizes_mb)
    # The baseline (BitPacker at 256 MB) joins the fan-out whether or not
    # the requested sweep contains it.
    grid_mbs = sizes_mb if BASELINE_MB in sizes_mb else sizes_mb + (BASELINE_MB,)
    results = runner.map_variants(
        simulate,
        [dict(register_file_mb=mb) for mb in grid_mbs],
        [
            dict(point, scheme=s, word_bits=word_bits)
            for s in SCHEMES
            for point in WORKLOAD_POINTS
        ],
    )
    # Each size holds the ten workloads under BitPacker, then RNS-CKKS.
    half = len(WORKLOAD_POINTS)
    gmeans = {
        mb: (gmean(r.time_s for r in point[:half]),
             gmean(r.time_s for r in point[half:]))
        for mb, point in zip(grid_mbs, results)
    }
    baseline = gmeans[BASELINE_MB][0]
    return [
        Fig17Row(
            register_file_mb=mb,
            bitpacker_norm=gmeans[mb][0] / baseline,
            rns_ckks_norm=gmeans[mb][1] / baseline,
        )
        for mb in sizes_mb
    ]


def render(rows: list[Fig17Row]) -> str:
    table = format_table(
        ["RF [MB]", "BitPacker", "RNS-CKKS"],
        [
            [f"{r.register_file_mb:.0f}", f"{r.bitpacker_norm:.2f}",
             f"{r.rns_ckks_norm:.2f}"]
            for r in rows
        ],
    )
    smallest = rows[0]
    return (
        "Fig. 17 — gmean execution time vs register-file size "
        "(normalized to BitPacker at 256 MB)\n"
        f"{table}\n"
        f"at {smallest.register_file_mb:.0f} MB: BitPacker "
        f"{smallest.bitpacker_norm:.2f}x, RNS-CKKS "
        f"{smallest.rns_ckks_norm:.2f}x (paper: ~1.7x vs >3x)"
    )
