"""Sec. 6.1's parameter sweep: BitPacker at 80-bit security.

The paper re-runs the 28-bit comparison with 80-bit-security parameters
(larger modulus budget, lower-digit keyswitching) and finds similar
benefits: gmean 53% speedup and 63% lower energy, vs 59%/59% at 128-bit.
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
from repro.schemes.security import max_log_qp

EVAL_N = 65536


@dataclass(frozen=True)
class SecurityRow:
    security_bits: int
    ks_digits: int
    max_log_q: float
    gmean_speedup: float
    gmean_energy_ratio: float


def _grid_gmeans(max_log_q: float, ks_digits: int) -> tuple[float, float]:
    calls = [
        dict(app=app, bs=bs, scheme=scheme, word_bits=28,
             ks_digits=ks_digits, max_log_q=max_log_q)
        for app, bs in WORKLOAD_GRID
        for scheme in SCHEMES
    ]
    results = runner.map_grid(simulate, calls)
    speedups = []
    energies = []
    for index in range(len(WORKLOAD_GRID)):
        bp, rns = results[2 * index], results[2 * index + 1]
        speedups.append(rns.time_s / bp.time_s)
        energies.append(rns.energy_j / bp.energy_j)
    return gmean(speedups), gmean(energies)


def run() -> list[SecurityRow]:
    rows = []
    for security, digits in ((128, 3), (80, 2)):
        budget = float(min(max_log_qp(EVAL_N, security), 2900))
        # The 128-bit point uses the paper's published 1596-bit budget.
        if security == 128:
            budget = 1596.0
        speedup, energy = _grid_gmeans(budget, digits)
        rows.append(
            SecurityRow(
                security_bits=security,
                ks_digits=digits,
                max_log_q=budget,
                gmean_speedup=speedup,
                gmean_energy_ratio=energy,
            )
        )
    return rows


def render(rows: list[SecurityRow]) -> str:
    table = format_table(
        ["security", "ks digits", "log2 Q*P", "gmean speedup", "gmean energy"],
        [
            [
                f"{r.security_bits}-bit",
                r.ks_digits,
                f"{r.max_log_q:.0f}",
                f"{r.gmean_speedup:.2f}x",
                f"{r.gmean_energy_ratio:.2f}x",
            ]
            for r in rows
        ],
    )
    return (
        "Sec. 6.1 — BitPacker benefits across security parameters "
        "(28-bit words)\n"
        f"{table}\n"
        "paper: 59%/59% at 128-bit, 53%/63% at 80-bit — benefits are "
        "similar because all parameters gain from the compact representation"
    )
