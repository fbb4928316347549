"""Ablations of the design choices DESIGN.md calls out.

Three studies beyond the paper's headline figures:

1. **Multi-modulus scale-down** (paper Sec. 4.3): BitPacker's bpRescale
   sheds several moduli in one CRB pass.  The ablation prices a variant
   that sheds one modulus at a time (iterated Listing-1-style rescales)
   to show why the single-pass design keeps level management at a few
   percent.
2. **Keyswitch digits** (paper Sec. 5): 1-, 2-, and 3-digit keyswitching
   trade hint size against basis-extension work and modulus budget.
3. **Terminal tolerance window** (paper Listing 7): widening the 0.5-bit
   acceptance window reduces terminal count (cheaper levels) at the cost
   of scale accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.config import craterlake
from repro.accel.kernels import OpCost, rescale_cost
from repro.accel.sim import AcceleratorSim
from repro.eval.common import WORKLOAD_GRID, format_table, gmean, simulate
from repro.schemes import plan_bitpacker_chain


# ----------------------------------------------------------------------
# 1. Single-pass vs iterated scale-down
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleDownRow:
    residues: int
    shed: int
    single_pass_cycles: float
    iterated_cycles: float

    @property
    def saving(self) -> float:
        return self.iterated_cycles / self.single_pass_cycles


def iterated_rescale_cost(r: int, added: int, shed: int) -> OpCost:
    """bpRescale shedding one modulus per pass (the design BitPacker
    rejects): k separate scale-downs instead of one CRB batch."""
    cost = OpCost(mul_passes=2 * r)  # the scale-up constant multiply
    current = r + added
    for _ in range(shed):
        cost = cost.merged(rescale_cost(current, 0, 1))
        current -= 1
    return cost


def run_scale_down_ablation(
    r_values=(10, 20, 40, 60), shed: int = 3, n: int = 65536
) -> list[ScaleDownRow]:
    sim = AcceleratorSim(craterlake())
    rows = []
    for r in r_values:
        single = rescale_cost(r, added=1, shed=shed)
        multi = iterated_rescale_cost(r, added=1, shed=shed)
        rows.append(
            ScaleDownRow(
                residues=r,
                shed=shed,
                single_pass_cycles=sim.op_cycles(single, n)[0],
                iterated_cycles=sim.op_cycles(multi, n)[0],
            )
        )
    return rows


def render_scale_down(rows: list[ScaleDownRow]) -> str:
    table = format_table(
        ["R", "shed", "single-pass [cyc]", "iterated [cyc]", "saving"],
        [
            [r.residues, r.shed, f"{r.single_pass_cycles:.0f}",
             f"{r.iterated_cycles:.0f}", f"{r.saving:.2f}x"]
            for r in rows
        ],
    )
    return (
        "Ablation — multi-modulus scaleDown (Sec. 4.3) vs one-at-a-time\n"
        f"{table}\n"
        "the single CRB pass is what keeps bpRescale's cost near an\n"
        "RNS-CKKS rescale despite switching more residues"
    )


# ----------------------------------------------------------------------
# 2. Keyswitch digit count
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DigitsRow:
    ks_digits: int
    gmean_time_ms: float
    gmean_energy_j: float


def run_digits_ablation(digit_counts=(2, 3)) -> list[DigitsRow]:
    """1-digit keyswitching is excluded by default: with ``P ~ Q`` it
    leaves no application levels inside the 128-bit 1596-bit budget once
    bootstrapping's modulus is accounted — the reason the paper pairs
    low-digit keyswitching with the larger 80-bit budget (Sec. 6.1)."""
    rows = []
    for digits in digit_counts:
        times = []
        energies = []
        for app, bs in WORKLOAD_GRID:
            res = simulate(app, bs, "bitpacker", 28, ks_digits=digits)
            times.append(res.time_ms)
            energies.append(res.energy_j)
        rows.append(
            DigitsRow(
                ks_digits=digits,
                gmean_time_ms=gmean(times),
                gmean_energy_j=gmean(energies),
            )
        )
    return rows


def render_digits(rows: list[DigitsRow]) -> str:
    table = format_table(
        ["ks digits", "gmean time [ms]", "gmean energy [J]"],
        [
            [r.ks_digits, f"{r.gmean_time_ms:.1f}", f"{r.gmean_energy_j:.2f}"]
            for r in rows
        ],
    )
    return (
        "Ablation — keyswitch digit count (BitPacker, 28-bit words)\n"
        f"{table}\n"
        "fewer digits: larger P (fewer usable levels, more bootstraps) but\n"
        "less basis-extension work per keyswitch"
    )


# ----------------------------------------------------------------------
# 3. Terminal tolerance window
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ToleranceRow:
    tolerance_bits: float
    top_residues: int
    max_scale_drift_bits: float


def run_tolerance_ablation(
    tolerances=(0.25, 0.5, 1.0, 2.0), n: int = 65536
) -> list[ToleranceRow]:
    rows = []
    for tol in tolerances:
        chain = plan_bitpacker_chain(
            n=n, word_bits=28, level_scale_bits=45.0, levels=12,
            base_bits=60.0, ks_digits=3, tolerance_bits=tol,
        )
        drift = max(
            abs(chain.levels[level].log2_scale - 45.0)
            for level in range(1, chain.max_level + 1)
        )
        rows.append(
            ToleranceRow(
                tolerance_bits=tol,
                top_residues=chain.residues_at(chain.max_level),
                max_scale_drift_bits=drift,
            )
        )
    return rows


def render_tolerance(rows: list[ToleranceRow]) -> str:
    table = format_table(
        ["window [bits]", "top-level R", "max scale drift [bits]"],
        [
            [f"{r.tolerance_bits:.2f}", r.top_residues,
             f"{r.max_scale_drift_bits:.2f}"]
            for r in rows
        ],
    )
    return (
        "Ablation — Listing 7 acceptance window\n"
        f"{table}\n"
        "the paper's 0.5-bit window is the knee: tighter windows do not\n"
        "shrink the ciphertext further, looser ones trade scale accuracy"
    )
