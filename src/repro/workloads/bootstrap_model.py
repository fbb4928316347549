"""Bootstrapping as an operation schedule (paper Secs. 2.2 and 5).

The performance experiments consume bootstrapping as a sequence of
homomorphic operations at known scales: CoeffToSlot (CtS) at high
levels, EvalMod (the homomorphic modular reduction) in the middle, and
SlotToCoeff (StC) at the bottom, after which the ciphertext re-enters
application levels.  The paper's two Lattigo configurations differ in
their stage scales and end-to-end precision:

- **BS19**: scales 52 / 55 / 30 bits, 19-bit precision,
- **BS26**: scales 54 / 60 / 40 bits, 26-bit precision (a bit costlier).

Per-stage op counts are structural estimates for ``N = 2^16`` slots with
baby-step/giant-step linear transforms and a degree-63 sine polynomial
with double-angle iterations — the standard Lattigo recipe.  They are
held identical across schemes and word sizes, so every comparison in the
paper's evaluation is unaffected by the estimates' absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ckks.bootstrap import BS19 as _BS19_ALGO
from repro.ckks.bootstrap import BS26 as _BS26_ALGO
from repro.ckks.bootstrap import BootstrapAlgorithm
from repro.trace.program import TraceBuilder


@dataclass(frozen=True)
class StageModel:
    """One bootstrap stage: levels consumed and per-level op counts."""

    levels: int
    scale_bits: float
    rot_per_level: float = 0.0
    hmul_per_level: float = 0.0
    pmul_per_level: float = 0.0
    hadd_per_level: float = 0.0


@dataclass(frozen=True)
class BootstrapSchedule:
    """A full bootstrap: CtS -> EvalMod -> StC (Fig. 3's reset arc)."""

    algorithm: BootstrapAlgorithm
    cts: StageModel
    evalmod: StageModel
    stc: StageModel

    @property
    def name(self) -> str:
        return self.algorithm.name

    @property
    def depth(self) -> int:
        """Levels a single bootstrap consumes."""
        return self.cts.levels + self.evalmod.levels + self.stc.levels

    @property
    def level_scale_bits(self) -> tuple[float, ...]:
        """Per-level scale targets, from the top level downward."""
        out: list[float] = []
        out += [self.cts.scale_bits] * self.cts.levels
        out += [self.evalmod.scale_bits] * self.evalmod.levels
        out += [self.stc.scale_bits] * self.stc.levels
        return tuple(out)

    def emit(self, builder: TraceBuilder, top_level: int) -> int:
        """Record one bootstrap starting at ``top_level``.

        Returns the level at which the refreshed ciphertext re-enters
        application computation.
        """
        level = top_level
        for stage in (self.cts, self.evalmod, self.stc):
            for _ in range(stage.levels):
                builder.hrot(level, stage.rot_per_level)
                builder.hmul(level, stage.hmul_per_level)
                builder.pmul(level, stage.pmul_per_level)
                builder.hadd(level, stage.hadd_per_level)
                builder.rescale(level)
                level -= 1
        return level


def _make_schedule(algorithm: BootstrapAlgorithm) -> BootstrapSchedule:
    cts_bits, evalmod_bits, stc_bits = algorithm.stage_scale_bits
    # CtS/StC: BSGS-decomposed homomorphic DFT over 2^15 slots, split into
    # 4 / 3 matrix levels; EvalMod: degree-63 Chebyshev sine + 2
    # double-angle squarings, ~8 multiplicative levels.
    return BootstrapSchedule(
        algorithm=algorithm,
        cts=StageModel(
            levels=4, scale_bits=cts_bits,
            rot_per_level=28.0, pmul_per_level=28.0, hadd_per_level=28.0,
        ),
        evalmod=StageModel(
            levels=8, scale_bits=evalmod_bits,
            hmul_per_level=7.0, pmul_per_level=3.0, hadd_per_level=8.0,
        ),
        stc=StageModel(
            levels=3, scale_bits=stc_bits,
            rot_per_level=14.0, pmul_per_level=14.0, hadd_per_level=14.0,
        ),
    )


#: The two bootstrap configurations of the paper's evaluation (Sec. 5).
BS19_SCHEDULE = _make_schedule(_BS19_ALGO)
BS26_SCHEDULE = _make_schedule(_BS26_ALGO)

SCHEDULES = {"BS19": BS19_SCHEDULE, "BS26": BS26_SCHEDULE}
