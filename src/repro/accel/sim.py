"""Throughput-balance accelerator simulator.

Prices a homomorphic-operation trace through a modulus chain on one
machine configuration.  For every op the kernel decomposition yields
primitive FU work; cycles are the bottleneck functional unit's occupancy
or the HBM service time, whichever is larger (CraterLake-class designs
overlap compute with data movement).  This is the substitution for the
authors' cycle-accurate simulator documented in DESIGN.md: the effects
the paper measures are driven by per-level residue counts and word
utilization, which op counts capture exactly.

Two second-order effects the paper leans on are modeled explicitly:

- **Register-file pressure** (Fig. 17): when an op's resident working set
  exceeds the register file, the deficit spills to HBM; a turnover
  factor sets how much of the deficit is re-streamed per operation.
- **Sustained HBM traffic**: even at 256 MB not all inter-op data stays
  resident across a whole program; a fixed fraction of each op's operand
  bytes is charged to HBM, which is what makes performance scale ~R^1.5
  rather than R^2 (compute) or R (memory) alone — Sec. 4.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.accel import kernels
from repro.accel.config import AcceleratorConfig
from repro.accel.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.accel.kernels import OpCost
from repro.errors import SimulationError
from repro.schemes.chain import ModulusChain
from repro.trace.program import LEVEL_MANAGEMENT_KINDS, HeTrace, TraceOp

#: Baseline fraction of each op's operand bytes that misses the register
#: file over a long program (compulsory input/output traffic).
STREAMING_FRACTION = 0.10

#: Pressure-dependent miss coefficient: once an op's working set exceeds
#: ~80% of the register file, reuse starts getting evicted between uses
#: and a growing share of operands streams from HBM; below that the
#: working set fits and traffic is compulsory only (the flat regions of
#: Fig. 17).  The ramp between the knee and full capacity is what makes
#: performance scale ~R^1.5 on balanced machines (paper Sec. 4.2):
#: compute is ~R while traffic is ~R * pressure(R).
MISS_PRESSURE_COEFF = 0.55
MISS_PRESSURE_KNEE = 0.75

#: Fraction of a register-file deficit that is re-streamed from HBM on
#: every operation touching it.
SPILL_TURNOVER = 0.6

#: Double-buffering/pipelining multiplier on an op's resident working
#: set: the next op's operands are prefetched while the current one
#: runs.  Calibrated against Fig. 17's two published anchor points: the
#: 28-bit RNS-CKKS working set saturates the 256 MB register file while
#: BitPacker's fits down to ~200 MB with no loss.
PIPELINE_RESIDENCY = 1.2

#: Kernel-accounting keys, in the order ties are broken: the functional
#: units of :meth:`AcceleratorSim.op_cycle_components` plus the HBM
#: service path.  Every op's cycles are attributed wholly to its
#: bottleneck kernel, so the per-kernel table sums to the total exactly
#: (the Fig. 10/12 cross-check the profile layer asserts).
KERNELS = ("ntt", "crb", "mul", "add", "auto", "kshgen", "hbm")


def op_rows(
    trace: HeTrace, price: Callable[[TraceOp], tuple]
) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """Price each distinct op of a trace once.

    A trace is a cost table's rows times multiplicities.  Returns
    ``(table, at, counts)``: ``table[r]`` is ``price`` of the trace's
    ``r``-th distinct op (:meth:`HeTrace.distinct_ops`, first-seen
    order), ``at[i]`` is op ``i``'s row and ``counts[i]`` its count.
    """
    distinct, at = trace.distinct_ops()
    table = [price(op) for op in distinct]
    counts = np.array([op.count for op in distinct], dtype=float)[at]
    return table, at, counts


def running_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, left to right: the sum an
    op-by-op loop makes.  ``np.add.accumulate`` adds sequentially, where
    ``np.sum`` pairs and can differ in the last bit; the leading
    ``0.0 +`` is the loop's start value (it turns a lone ``-0.0`` into
    ``0.0``)."""
    return 0.0 + float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def sums_by(labels: Sequence[str], at: np.ndarray, values: np.ndarray
            ) -> dict[str, float]:
    """Running sum of ``values`` per label, keys in first-seen order.

    ``labels[r]`` labels row ``r`` of :func:`op_rows`, so a label's first
    row also holds its first op.
    """
    codes: dict[str, int] = {}
    of_row = np.array([codes.setdefault(label, len(codes)) for label in labels],
                      dtype=np.intp)
    of_op = of_row[at]
    return {label: running_sum(values[of_op == code])
            for label, code in codes.items()}


@dataclass
class SimResult:
    """Aggregate outcome of simulating one trace on one machine."""

    name: str
    config_name: str
    scheme: str
    cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    energy_j: float = 0.0
    level_mgmt_cycles: float = 0.0
    level_mgmt_energy_j: float = 0.0
    hbm_bytes: float = 0.0
    energy_by_component: dict[str, float] = field(default_factory=dict)
    cycles_by_kind: dict[str, float] = field(default_factory=dict)
    #: Bottleneck attribution: cycles charged to the functional unit (or
    #: HBM) that limited each op, keyed by :data:`KERNELS`.  Sums to
    #: :attr:`cycles` within float error by construction.
    kernel_cycles: dict[str, float] = field(default_factory=dict)
    clock_ghz: float = 1.0

    @property
    def time_s(self) -> float:
        return self.cycles / (self.clock_ghz * 1e9)

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3

    @property
    def edp(self) -> float:
        """Energy-delay product (J·s)."""
        return self.energy_j * self.time_s

    @property
    def level_mgmt_energy_fraction(self) -> float:
        return self.level_mgmt_energy_j / self.energy_j if self.energy_j else 0.0


class AcceleratorSim:
    """Prices traces on one accelerator configuration."""

    def __init__(
        self,
        config: AcceleratorConfig,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
        streaming_fraction: float = STREAMING_FRACTION,
        spill_turnover: float = SPILL_TURNOVER,
    ):
        self.config = config
        self.energy_model = energy_model
        self.streaming_fraction = streaming_fraction
        self.spill_turnover = spill_turnover

    # ------------------------------------------------------------------
    def op_cost(self, op: TraceOp, chain: ModulusChain) -> OpCost:
        """Kernel decomposition of one trace op through the chain."""
        return kernels.op_cost(op, chain, self.config.kshgen)

    # ------------------------------------------------------------------
    def op_cycle_components(self, cost: OpCost, n: int) -> dict[str, float]:
        """Per-kernel occupancies for one op instance, keyed by
        :data:`KERNELS`.

        Functional units run concurrently, so an op's compute time is
        the *max* of the FU entries; ``"hbm"`` is the overlapping memory
        service time.  The bottleneck kernel — the argmax, ties broken
        in :data:`KERNELS` order — is where the op's cycles are charged
        in :attr:`SimResult.kernel_cycles`.
        """
        cfg = self.config
        pass_cycles = n / cfg.lanes
        return {
            # The NTT FUs are fully pipelined four-step designs that
            # sustain one residue element per lane per cycle
            # (CraterLake Sec. 4.1).
            "ntt": cost.ntt_passes * pass_cycles / cfg.ntt_fus,
            "crb": (
                sum(
                    dst * pass_cycles * math.ceil(max(src, 1) / cfg.crb_macs_per_lane)
                    for src, dst in cost.crb_jobs
                )
                / cfg.crb_fus
            ),
            "mul": cost.mul_passes * pass_cycles / cfg.mul_fus,
            "add": cost.add_passes * pass_cycles / cfg.add_fus,
            "auto": cost.auto_passes * pass_cycles / cfg.auto_fus,
            # KSHGen expands hints at twice line rate (PRNG pipeline).
            "kshgen": cost.kshgen_passes * pass_cycles / 2.0,
            "hbm": self._op_hbm_bytes(cost, n) / cfg.bytes_per_cycle,
        }

    def op_cycles(self, cost: OpCost, n: int) -> tuple[float, float]:
        """``(compute_cycles, memory_cycles)`` for one op instance."""
        components = self.op_cycle_components(cost, n)
        memory = components.pop("hbm")
        return max(components.values()), memory

    def _op_hbm_bytes(self, cost: OpCost, n: int) -> float:
        row_bytes = self.config.row_bytes(n)
        resident_bytes = cost.resident_rows * row_bytes * PIPELINE_RESIDENCY
        rf_bytes = self.config.register_file_mb * 1e6
        pressure = min(resident_bytes / rf_bytes, 1.0)
        ramp = max(0.0, pressure - MISS_PRESSURE_KNEE) / (1.0 - MISS_PRESSURE_KNEE)
        miss_fraction = self.streaming_fraction + MISS_PRESSURE_COEFF * ramp
        nominal = cost.hbm_rows * row_bytes * miss_fraction
        spill = max(0.0, resident_bytes - rf_bytes) * self.spill_turnover
        return nominal + spill

    def _price_row(
        self, op: TraceOp, chain: ModulusChain, n: int, shapes: dict
    ) -> tuple:
        """Unit quantities of ``op``'s :func:`op_rows` row.

        ``shapes`` memoises the decomposition per (kind, level,
        dst_level) for the length of one :meth:`run`; the energy is
        priced per row, because ``count`` enters the extra-HBM term
        through a clamp, not as a factor.
        """
        shape = (op.kind, op.level, op.dst_level)
        unit = shapes.get(shape)
        if unit is None:
            cost = self.op_cost(op, chain)
            components = self.op_cycle_components(cost, n)
            unit = shapes[shape] = (
                cost,
                max(v for k, v in components.items() if k != "hbm"),
                components["hbm"],
                max(KERNELS, key=components.__getitem__),
                self._op_hbm_bytes(cost, n),
                cost.hbm_rows * self.config.row_bytes(n),
            )
        cost, compute, memory, bottleneck, unit_hbm, operand_bytes = unit
        count = op.count
        extra_hbm = unit_hbm * count - operand_bytes * count
        breakdown = self.energy_model.op_energy_breakdown(
            cost, n, self.config.word_bits,
            extra_hbm_bytes=max(0.0, extra_hbm) / max(count, 1.0),
        )
        return (
            compute, memory, bottleneck, unit_hbm, breakdown,
            sum(breakdown.values()), op.kind.value,
            op.kind in LEVEL_MANAGEMENT_KINDS,
        )

    # ------------------------------------------------------------------
    def run(self, trace: HeTrace, chain: ModulusChain) -> SimResult:
        """Simulate a full trace; returns time, energy, and breakdowns."""
        if trace.max_level != chain.max_level:
            raise SimulationError(
                f"trace {trace.name} has {trace.max_level + 1} levels but the "
                f"chain has {chain.max_level + 1}"
            )
        result = SimResult(
            name=trace.name,
            config_name=self.config.name,
            scheme=chain.scheme,
            clock_ghz=self.config.clock_ghz,
        )
        # Every sum runs op by op in trace order, each over its own ops:
        # float addition is not associative, and results/*.txt are
        # compared bytewise.
        shapes: dict[tuple, tuple] = {}
        table, at, counts = op_rows(
            trace, lambda op: self._price_row(op, chain, trace.n, shapes))
        (compute, memory, bottleneck, unit_hbm, breakdowns, unit_energy,
         kind_name, level_mgmt) = zip(*table) if table else ((),) * 8

        def per_op(unit) -> np.ndarray:
            return np.array(list(unit), dtype=float)[at] * counts

        cycles = per_op(map(max, compute, memory))
        energy = per_op(unit_energy)
        result.cycles = running_sum(cycles)
        result.compute_cycles = running_sum(per_op(compute))
        result.memory_cycles = running_sum(per_op(memory))
        result.energy_j = running_sum(energy)
        result.hbm_bytes = running_sum(per_op(unit_hbm))
        result.kernel_cycles = sums_by(bottleneck, at, cycles)
        result.cycles_by_kind = sums_by(kind_name, at, cycles)
        for component in breakdowns[0] if breakdowns else ():
            result.energy_by_component[component] = running_sum(
                per_op([b[component] for b in breakdowns]))
        managed = np.array(level_mgmt, dtype=bool)[at]
        result.level_mgmt_cycles = running_sum(cycles[managed])
        result.level_mgmt_energy_j = running_sum(energy[managed])
        static = self.energy_model.static_watts * result.time_s
        result.energy_j += static
        result.energy_by_component["static"] = static
        return result
