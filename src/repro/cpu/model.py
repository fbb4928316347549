"""Operation-count CPU model (paper Sec. 6.4, Fig. 13).

Models a single-threaded 64-bit CPU (the paper's 3.5 GHz Zen 2) running
an RNS-CKKS/BitPacker library.  The paper's observations, which this
model reproduces structurally rather than by fitting:

- 64-bit words are the right choice on CPUs, so RNS-CKKS uses one
  residue per scale and BitPacker's packing advantage is the residue
  ratio alone (~1.2-1.4x), not the accelerator's superlinear gain;
- without a CRB-style specialized unit, NTT butterflies (which grow
  linearly in R) dominate, diluting the quadratic terms BitPacker
  shrinks;
- the CPU is compute-bound, so memory traffic is not modeled.

Per-element cycle weights approximate a Montgomery-multiplication NTT
implementation with AVX2 vectorization.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.accel import kernels
from repro.errors import SimulationError
from repro.schemes.chain import ModulusChain
from repro.trace.program import LEVEL_MANAGEMENT_KINDS, HeTrace, TraceOp


@dataclass
class CpuResult:
    """Aggregate CPU-model outcome for one trace."""

    name: str
    scheme: str
    cycles: float = 0.0
    level_mgmt_cycles: float = 0.0
    cycles_by_kind: dict[str, float] = field(default_factory=dict)
    clock_ghz: float = 3.5

    @property
    def time_s(self) -> float:
        return self.cycles / (self.clock_ghz * 1e9)

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3

    @property
    def level_mgmt_fraction(self) -> float:
        return self.level_mgmt_cycles / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form for the experiment runner's disk cache."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CpuResult":
        return cls(**data)


@dataclass(frozen=True)
class CpuModel:
    """Per-element cycle weights for a 64-bit scalar/AVX implementation."""

    clock_ghz: float = 3.5
    butterfly_cycles: float = 8.0  # modmul + 2 modadds + twiddle load
    mul_cycles: float = 5.0  # elementwise Montgomery multiply
    add_cycles: float = 1.5
    auto_cycles: float = 2.5  # permutation with sign fixup
    crb_mac_cycles: float = 5.5  # multiply-accumulate + lazy reduction

    def op_cycles(self, op: TraceOp, chain: ModulusChain, n: int) -> float:
        # On a CPU keys are precomputed in memory: no KSHGen work.
        cost = kernels.op_cost(op, chain, kshgen=False)
        butterflies = cost.ntt_passes * (n / 2) * math.log2(n)
        return (
            butterflies * self.butterfly_cycles
            + cost.mul_passes * n * self.mul_cycles
            + cost.add_passes * n * self.add_cycles
            + cost.auto_passes * n * self.auto_cycles
            + cost.crb_mac_rows * n * self.crb_mac_cycles
        )

    def run(self, trace: HeTrace, chain: ModulusChain) -> CpuResult:
        if trace.max_level != chain.max_level:
            raise SimulationError(
                f"trace {trace.name} and chain level counts differ"
            )
        result = CpuResult(
            name=trace.name, scheme=chain.scheme, clock_ghz=self.clock_ghz
        )
        unit_cycles: dict[tuple, float] = {}  # per op shape, this call only
        for op in trace.ops:
            shape = (op.kind, op.level, op.dst_level)
            unit = unit_cycles.get(shape)
            if unit is None:
                unit = unit_cycles[shape] = self.op_cycles(op, chain, trace.n)
            cycles = unit * op.count
            result.cycles += cycles
            kind_name = op.kind.value
            result.cycles_by_kind[kind_name] = (
                result.cycles_by_kind.get(kind_name, 0.0) + cycles
            )
            if op.kind in LEVEL_MANAGEMENT_KINDS:
                result.level_mgmt_cycles += cycles
        return result


#: Shared instance for the experiments.
DEFAULT_CPU_MODEL = CpuModel()
