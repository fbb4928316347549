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
    WORKLOAD_GRID,
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
    points = [
        (mb, scheme, app, bs)
        for mb in grid_mbs
        for scheme in SCHEMES
        for app, bs in WORKLOAD_GRID
    ]
    calls = [
        dict(app=app, bs=bs, scheme=scheme, word_bits=word_bits,
             register_file_mb=mb)
        for mb, scheme, app, bs in points
    ]
    results = runner.map_grid(simulate, calls)
    times: dict[tuple[float, str], list[float]] = {}
    for (mb, scheme, _app, _bs), result in zip(points, results):
        times.setdefault((mb, scheme), []).append(result.time_s)

    def gmean_time(scheme: str, mb: float) -> float:
        return gmean(times[(mb, scheme)])

    baseline = gmean_time("bitpacker", BASELINE_MB)
    return [
        Fig17Row(
            register_file_mb=mb,
            bitpacker_norm=gmean_time("bitpacker", mb) / baseline,
            rns_ckks_norm=gmean_time("rns-ckks", mb) / baseline,
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
