"""Fig. 12: energy, BitPacker vs RNS-CKKS, 28-bit CraterLake.

Includes the level-management (rescale + adjust) energy split the paper
breaks out: both schemes spend only ~6-7% of energy on level management,
and BitPacker's is *absolutely* smaller despite switching more residues,
because the CRB sheds multiple moduli in one pass (Sec. 4.3).  The paper
also reports a 2.53x EDP improvement.
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
    gmean,
    simulate,
)


@dataclass(frozen=True)
class Fig12Row(WorkloadRow):
    bp_energy_j: float
    rns_energy_j: float
    bp_level_mgmt_fraction: float
    rns_level_mgmt_fraction: float
    bp_edp: float
    rns_edp: float

    @property
    def energy_ratio(self) -> float:
        return self.rns_energy_j / self.bp_energy_j

    @property
    def edp_ratio(self) -> float:
        return self.rns_edp / self.bp_edp


def run(word_bits: int = 28, ks_digits: int = 3,
        max_log_q: float = 1596.0) -> list[Fig12Row]:
    results = runner.map_variants(simulate, WORKLOAD_POINTS, [
        dict(scheme=s, word_bits=word_bits, ks_digits=ks_digits,
             max_log_q=max_log_q)
        for s in SCHEMES
    ])
    return [
        Fig12Row(
            app=app,
            bs=bs,
            bp_energy_j=bp.energy_j,
            rns_energy_j=rns.energy_j,
            bp_level_mgmt_fraction=bp.level_mgmt_energy_fraction,
            rns_level_mgmt_fraction=rns.level_mgmt_energy_fraction,
            bp_edp=bp.edp,
            rns_edp=rns.edp,
        )
        for (app, bs), (bp, rns) in zip(WORKLOAD_GRID, results)
    ]


def render(rows: list[Fig12Row]) -> str:
    table = format_table(
        [
            "benchmark",
            "BP [J]",
            "R-C [J]",
            "ratio",
            "BP lvl-mgmt",
            "R-C lvl-mgmt",
        ],
        [
            [
                r.label,
                f"{r.bp_energy_j:.2f}",
                f"{r.rns_energy_j:.2f}",
                f"{r.energy_ratio:.2f}",
                f"{r.bp_level_mgmt_fraction * 100:.1f}%",
                f"{r.rns_level_mgmt_fraction * 100:.1f}%",
            ]
            for r in rows
        ],
    )
    return (
        "Fig. 12 — energy on 28-bit CraterLake (BitPacker = 1.0)\n"
        f"{table}\n"
        f"gmean RNS-CKKS normalized energy: "
        f"{gmean(r.energy_ratio for r in rows):.2f} (paper: ~1.59)\n"
        f"gmean EDP improvement: {gmean(r.edp_ratio for r in rows):.2f}x "
        "(paper: 2.53x)"
    )
