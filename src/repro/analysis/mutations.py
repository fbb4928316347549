"""Seeded schedule mutations: proof the verifier catches real bugs.

Each mutation takes a clean, verified trace and corrupts it in one
targeted way — the FHE scheduling bugs the abstract interpreter exists
to catch — and names the rule that must fire.
``tests/test_analysis_absint.py`` applies every mutation to every
bundled workload trace and asserts the expected rule id is reported,
so a transfer-function regression that silently stops catching a bug
class fails the build even while the clean traces still pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.analysis.absint import level_modulus_bits
from repro.errors import ParameterError
from repro.trace.program import HeTrace, OpKind, TraceOp


def _with_ops(trace: HeTrace, ops: list[TraceOp]) -> HeTrace:
    return HeTrace(
        name=f"{trace.name} [mutated]",
        n=trace.n,
        base_bits=trace.base_bits,
        level_scale_bits=trace.level_scale_bits,
        ops=tuple(ops),
    )


def _first_index(trace: HeTrace, *kinds: OpKind, min_level: int = 0) -> int:
    for index, op in enumerate(trace.ops):
        if op.kind in kinds and op.count > 0 and op.level >= min_level:
            return index
    raise ParameterError(
        f"trace '{trace.name}' has no {[k.value for k in kinds]} op"
    )


def mutate_scale_overflow(trace: HeTrace) -> HeTrace:
    """A multiply whose recorded operand scale fills the level modulus."""
    index = _first_index(trace, OpKind.HMUL, min_level=1)
    q = level_modulus_bits(trace)
    ops = list(trace.ops)
    ops[index] = replace(ops[index], scale_bits=q[ops[index].level])
    return _with_ops(trace, ops)


def mutate_missing_rescale(trace: HeTrace) -> HeTrace:
    """Drop the first rescale: the level flow breaks right after it."""
    index = _first_index(trace, OpKind.RESCALE)
    ops = list(trace.ops)
    del ops[index]
    return _with_ops(trace, ops)


def mutate_level_underflow(trace: HeTrace) -> HeTrace:
    """Push the first compute op below level 0 (a missing bootstrap)."""
    index = _first_index(
        trace, OpKind.HMUL, OpKind.PMUL, OpKind.HADD, OpKind.PADD, OpKind.HROT
    )
    ops = list(trace.ops)
    ops[index] = replace(ops[index], level=-1)
    return _with_ops(trace, ops)


def mutate_bad_adjust(trace: HeTrace) -> HeTrace:
    """An adjust that tries to move *up* the chain (needs a bootstrap)."""
    ops = list(trace.ops)
    try:
        index = _first_index(trace, OpKind.ADJUST)
        ops[index] = replace(ops[index], dst_level=ops[index].level)
    except ParameterError:
        top = trace.max_level
        ops.append(TraceOp(OpKind.ADJUST, level=top, dst_level=top))
    return _with_ops(trace, ops)


def mutate_noise_exhaustion(trace: HeTrace) -> HeTrace:
    """Crush every scale target: noise swamps the value domain."""
    starved = tuple(8.0 for _ in trace.level_scale_bits)
    return HeTrace(
        name=f"{trace.name} [mutated]",
        n=trace.n,
        base_bits=trace.base_bits,
        level_scale_bits=starved,
        ops=trace.ops,
    )


@dataclass(frozen=True)
class Mutation:
    """One corruption plus the rule id the verifier must report."""

    name: str
    expected_rule: str
    apply: Callable[[HeTrace], HeTrace]


MUTATIONS: tuple[Mutation, ...] = (
    Mutation("scale-overflow", "trace-scale-overflow", mutate_scale_overflow),
    Mutation("missing-rescale", "trace-level-flow", mutate_missing_rescale),
    Mutation("level-underflow", "trace-level-range", mutate_level_underflow),
    Mutation("bad-adjust", "trace-adjust-up", mutate_bad_adjust),
    Mutation(
        "noise-exhaustion", "trace-noise-exhausted", mutate_noise_exhaustion
    ),
)
