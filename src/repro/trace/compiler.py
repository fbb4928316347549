"""Trace compiler: absint-certified schedule optimization (ROADMAP item).

The hand-transcribed workload schedules follow the paper's figures, which
means they inherit the figures' conservatism: chains sized for the
deepest benchmark, app scales pinned at the global default, levels kept
around "just in case".  BitPacker's packed residues make the modulus
chain track each level's *actual* scale, so any slack the abstract
interpreter (:mod:`repro.analysis.absint`) can prove is slack the chain
can shed — fewer levels and a narrower ``Q`` compound through every
downstream model (fewer residues per op, fewer kernel calls, smaller
keys).

:func:`compile_trace` runs a fixed pass pipeline over one
:class:`~repro.trace.program.HeTrace`:

1. **analyze** — ``verify_or_raise`` on the input: the compiler refuses
   (never silently drops) traces that fail static verification.
2. **elide-rescale** — drop rescales the verifier flags as
   ``trace-elidable-rescale`` (never-multiplied ciphertexts in a uniform
   scale region; bootstrap-span conversions are load-bearing and the
   verifier no longer flags them), shifting the downstream level walk up
   by one.
3. **elide-adjust** — drop adjusts flagged ``trace-elidable-adjust``
   (no live compute at the source level).
4. **sink-rescale** — rewrite ``c`` parallel rescales feeding a tree-add
   into one add-then-rescale (``c-1`` rescales saved), when the trace
   records that exact pattern.
5. **truncate-levels** — remove chain levels no op ever touches (unused
   bottom levels after adjusts, unused top levels), relabeling ops and
   slicing the scale targets; ``Q_top`` shrinks by the dropped targets.
6. **tighten-scales** — lower the application region's scale targets
   (the bottom uniform run) by the largest ``delta`` that keeps the
   verified noise margin at or above :data:`MIN_NOISE_MARGIN_BITS`.
7. **tighten-base** — shrink ``base_bits`` into the verifier's measured
   per-level slack, keeping :data:`BASE_SAFETY_BITS` in reserve.

**Soundness.**  Every rewrite is certified: the pipeline re-runs
``verify_trace`` after each pass and reverts the pass wholesale if it
introduced any violation or dropped the noise margin below the floor.
The final trace is certified once more by ``verify_or_raise``, so a
:class:`CompiledTrace` is by construction violation-free.  Level/scale
semantics are additionally guarded structurally (elision only inside
uniform-scale regions, never across an ADJUST or bootstrap entry).

The result carries provenance: the canonical content digest of both the
source and the compiled trace (:func:`repro.trace.program
.content_digest`), so serve admission and eval caches keyed on trace
content distinguish the two and a recompilation invalidates stale
verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.analysis.absint import (
    VerifyResult,
    verify_or_raise,
    verify_trace,
)
from repro.errors import ParameterError
from repro.obs import core as _obs
from repro.trace.program import HeTrace, OpKind, TraceOp, content_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.schemes.chain import ModulusChain

#: Noise-margin floor a compiled schedule must keep (bits of error-free
#: mantissa at the worst op).  12 is the seed schedules' own observed
#: minimum across the bundled workloads, so compilation never degrades a
#: workload below what the hand schedules already accept.
MIN_NOISE_MARGIN_BITS = 12.0

#: Largest per-level scale reduction tighten-scales will attempt.
MAX_SCALE_DELTA_BITS = 6.0

#: Modulus bits tighten-base leaves on top of the verifier's headroom.
BASE_SAFETY_BITS = 1.0


@dataclass(frozen=True)
class PassResult:
    """One pipeline pass: how many rewrites it performed."""

    name: str
    rewrites: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "rewrites": self.rewrites,
                "detail": self.detail}


@dataclass(frozen=True)
class CompiledTrace:
    """A compiled schedule plus its provenance and savings report."""

    trace: HeTrace
    scheme: str
    word_bits: int
    source_digest: str
    digest: str
    passes: tuple[PassResult, ...]
    levels_before: int
    levels_after: int
    log2_q_before: float
    log2_q_after: float
    noise_margin_before: float
    noise_margin_after: float
    ops_elided: float
    chain: "ModulusChain | None" = None

    @property
    def levels_saved(self) -> int:
        return self.levels_before - self.levels_after

    @property
    def log2_q_saved(self) -> float:
        return self.log2_q_before - self.log2_q_after

    @property
    def changed(self) -> bool:
        return self.digest != self.source_digest

    def to_dict(self) -> dict:
        from repro.schemes import chain_to_dict

        return {
            "trace": self.trace.to_dict(),
            "scheme": self.scheme,
            "word_bits": self.word_bits,
            "source_digest": self.source_digest,
            "digest": self.digest,
            "passes": [p.to_dict() for p in self.passes],
            "levels_before": self.levels_before,
            "levels_after": self.levels_after,
            "log2_q_before": self.log2_q_before,
            "log2_q_after": self.log2_q_after,
            "noise_margin_before": self.noise_margin_before,
            "noise_margin_after": self.noise_margin_after,
            "ops_elided": self.ops_elided,
            "chain": None if self.chain is None else chain_to_dict(self.chain),
        }


# -- rewrite passes ------------------------------------------------------
# Each pass maps (trace, its VerifyResult) to (new trace, rewrite count,
# human detail).  Passes may assume the input verified clean; the driver
# re-verifies their output and reverts on any violation.


def _shift_ops(ops: Sequence[TraceOp], offset: int) -> tuple[TraceOp, ...]:
    return tuple(
        replace(
            op,
            level=op.level + offset,
            dst_level=None if op.dst_level is None else op.dst_level + offset,
        )
        for op in ops
    )


def _pass_elide_rescale(
    trace: HeTrace, result: VerifyResult
) -> tuple[HeTrace, float, str]:
    """Drop one verifier-flagged redundant rescale (rule
    ``trace-elidable-rescale``), shifting the downstream walk up a level.

    The shift stops at the next bootstrap entry (an op back at the top
    level) and is attempted only when every shifted op keeps its scale
    target and the shifted region contains no ADJUST — both would change
    value semantics rather than relabel the same walk.  The driver loops
    the pass to a fixpoint, so multiple flagged rescales elide one at a
    time, each re-certified.
    """
    flagged = [f.line for f in result.waste if f.rule == "trace-elidable-rescale"]
    targets = trace.level_scale_bits
    for index in flagged:
        if not 0 <= index < len(trace.ops):
            continue
        op = trace.ops[index]
        if op.kind is not OpKind.RESCALE:
            continue
        end = len(trace.ops)
        for j in range(index + 1, len(trace.ops)):
            if trace.ops[j].level >= trace.max_level:
                end = j
                break
        region = trace.ops[index + 1:end]
        if any(o.kind is OpKind.ADJUST for o in region):
            continue
        if any(
            not 0 <= o.level + 1 <= trace.max_level
            or targets[o.level + 1] != targets[o.level]
            for o in region
        ):
            continue
        ops = (
            trace.ops[:index]
            + _shift_ops(region, +1)
            + trace.ops[end:]
        )
        new = replace(trace, ops=ops)
        return new, op.count, f"elided rescale at op {index}"
    return trace, 0.0, ""


def _pass_elide_adjust(
    trace: HeTrace, result: VerifyResult
) -> tuple[HeTrace, float, str]:
    """Drop one adjust flagged ``trace-elidable-adjust`` (its source
    level saw no compute, so the value could have been produced at the
    destination directly)."""
    flagged = [f.line for f in result.waste if f.rule == "trace-elidable-adjust"]
    for index in flagged:
        if not 0 <= index < len(trace.ops):
            continue
        op = trace.ops[index]
        if op.kind is not OpKind.ADJUST:
            continue
        new = replace(trace, ops=trace.ops[:index] + trace.ops[index + 1:])
        return new, op.count, f"elided adjust at op {index}"
    return trace, 0.0, ""


def _pass_sink_rescale(
    trace: HeTrace, result: VerifyResult
) -> tuple[HeTrace, float, str]:
    """Sink parallel rescales past the tree-add that consumes them.

    ``RESCALE(l, c>1)`` immediately followed by ``HADD(l-1, c-1)`` is a
    reduction of ``c`` products: adding first at level ``l`` and
    rescaling the single sum needs one rescale instead of ``c``.
    """
    ops = list(trace.ops)
    rewrites = 0.0
    sites = 0
    i = 0
    while i + 1 < len(ops):
        a, b = ops[i], ops[i + 1]
        if (
            a.kind is OpKind.RESCALE
            and a.count > 1
            and b.kind is OpKind.HADD
            and b.level == a.level - 1
            and b.count == a.count - 1
        ):
            ops[i:i + 2] = [
                TraceOp(OpKind.HADD, a.level, a.count - 1),
                TraceOp(OpKind.RESCALE, a.level, 1.0),
            ]
            rewrites += a.count - 1
            sites += 1
        i += 1
    if not sites:
        return trace, 0.0, ""
    return (
        replace(trace, ops=ops),
        rewrites,
        f"sank {sites} rescale group(s) past their tree-add",
    )


def _used_levels(trace: HeTrace) -> set[int]:
    used: set[int] = set()
    for op in trace.ops:
        if op.count == 0:
            continue
        used.add(op.level)
        if op.kind is OpKind.RESCALE:
            used.add(op.level - 1)
        if op.kind is OpKind.ADJUST and op.dst_level is not None:
            used.add(op.dst_level)
    return used


def _pass_truncate_levels(
    trace: HeTrace, result: VerifyResult
) -> tuple[HeTrace, float, str]:
    """Drop chain levels no op ever touches.

    Workloads that adjust straight past the bottom of the chain (or
    never climb to its top outside a bootstrap) pay modulus for levels
    they never occupy.  Removing ``k`` bottom levels relabels every op
    down by ``k`` and drops those levels' scale targets, so
    ``Q_top = base + sum(T[1:])`` shrinks by the dropped targets;
    ``base_bits`` is unchanged (it is the residency requirement at
    whatever level is terminal).
    """
    used = _used_levels(trace)
    if not used:
        return trace, 0.0, ""
    bottom = 0
    while bottom not in used:
        bottom += 1
    top = max(used)
    if bottom == 0 and top == trace.max_level:
        return trace, 0.0, ""
    new = replace(
        trace,
        level_scale_bits=trace.level_scale_bits[bottom:top + 1],
        ops=_shift_ops(trace.ops, -bottom),
    )
    dropped = bottom + (trace.max_level - top)
    return (
        new,
        float(dropped),
        f"dropped {bottom} unused bottom / {trace.max_level - top} "
        "unused top level(s)",
    )


def _app_run_length(targets: Sequence[float]) -> int:
    run = 1
    while run < len(targets) and targets[run] == targets[0]:
        run += 1
    return run


def _pass_tighten_scales(
    trace: HeTrace, result: VerifyResult
) -> tuple[HeTrace, float, str]:
    """Lower the application scales into the measured noise margin.

    The bottom uniform-target run is the application region; reducing
    its scale by ``delta`` sheds ``delta`` bits per app level from ``Q``
    at the cost of ``~delta`` bits of precision.  The largest ``delta``
    (up to :data:`MAX_SCALE_DELTA_BITS`) that re-verifies clean with a
    noise margin still at or above :data:`MIN_NOISE_MARGIN_BITS` wins;
    if none does, the pass is a no-op.
    """
    targets = trace.level_scale_bits
    run = _app_run_length(targets)
    margin = result.min_noise_margin_bits
    if not math.isfinite(margin):
        return trace, 0.0, ""
    delta = min(MAX_SCALE_DELTA_BITS, float(int(margin - MIN_NOISE_MARGIN_BITS)))
    while delta > 0:
        tightened = tuple(
            t - delta if i < run else t for i, t in enumerate(targets)
        )
        candidate = replace(trace, level_scale_bits=tightened)
        check = verify_trace(candidate)
        if not check.findings and (
            check.min_noise_margin_bits >= MIN_NOISE_MARGIN_BITS
        ):
            return (
                candidate,
                delta * run,
                f"app scales -{delta:g} bits over {run} level(s), "
                f"margin {margin:.1f} -> {check.min_noise_margin_bits:.1f}",
            )
        delta -= 1
    return trace, 0.0, ""


def _pass_tighten_base(
    trace: HeTrace, result: VerifyResult
) -> tuple[HeTrace, float, str]:
    """Shrink ``base_bits`` into the verifier's measured slack.

    ``slack_bits`` already subtracts the overflow headroom, so the base
    can safely come down by the minimum slack less
    :data:`BASE_SAFETY_BITS`; re-verification (driver-side) then proves
    no product encroaches anywhere on the narrower chain.
    """
    slack = result.slack_bits
    if not slack:
        return trace, 0.0, ""
    delta = float(int(min(slack) - BASE_SAFETY_BITS))
    while delta > 0:
        candidate = replace(trace, base_bits=trace.base_bits - delta)
        check = verify_trace(candidate)
        if not check.findings:
            return (
                candidate,
                delta,
                f"base {trace.base_bits:g} -> {trace.base_bits - delta:g} bits",
            )
        delta -= 1
    return trace, 0.0, ""


#: The pipeline, in order.  (name, pass, run-to-fixpoint?)
_PIPELINE: tuple[tuple[str, Callable, bool], ...] = (
    ("elide-rescale", _pass_elide_rescale, True),
    ("elide-adjust", _pass_elide_adjust, True),
    ("sink-rescale", _pass_sink_rescale, False),
    ("truncate-levels", _pass_truncate_levels, False),
    ("tighten-scales", _pass_tighten_scales, False),
    ("tighten-base", _pass_tighten_base, False),
)


def compile_trace(
    trace: HeTrace,
    *,
    scheme: str = "bitpacker",
    word_bits: int = 28,
    ks_digits: int = 3,
    plan: bool = True,
) -> CompiledTrace:
    """Compile one schedule; see the module doc for the pipeline.

    Raises :class:`~repro.errors.ScheduleViolationError` if the *input*
    fails static verification (the compiler refuses rather than papering
    over a broken schedule) and :class:`~repro.errors.ParameterError`
    for unusable arguments.  With ``plan=True`` the compiled scale
    profile is re-planned into a concrete modulus chain for ``scheme``.
    """
    if scheme not in ("bitpacker", "rns-ckks"):
        raise ParameterError(f"unknown scheme {scheme!r}")
    before = verify_or_raise(trace, word_bits=word_bits)
    source_digest = content_digest(trace)

    current, result = trace, before
    passes: list[PassResult] = []
    ops_elided = 0.0
    for name, fn, fixpoint in _PIPELINE:
        rewrites = 0.0
        details: list[str] = []
        while True:
            candidate, n, detail = fn(current, result)
            if n == 0 or candidate is current:
                break
            check = verify_trace(candidate, word_bits=word_bits)
            # Certify the rewrite: any violation, or a margin now below
            # both the floor and what the input already had, reverts it.
            floor = min(MIN_NOISE_MARGIN_BITS, before.min_noise_margin_bits)
            if check.findings or check.min_noise_margin_bits < floor:
                break
            current, result = candidate, check
            rewrites += n
            if detail:
                details.append(detail)
            if not fixpoint:
                break
        if rewrites:
            _obs.count(f"compiler.pass.{name}.rewrites", rewrites)
            if name.startswith("elide") or name == "sink-rescale":
                ops_elided += rewrites
        passes.append(PassResult(name, rewrites, "; ".join(details)))

    after = verify_or_raise(current, word_bits=word_bits)
    chain = None
    if plan:
        from repro.schemes import plan_chain

        kwargs = {"snap_scales": True} if scheme == "rns-ckks" else {}
        chain = plan_chain(
            scheme,
            n=current.n,
            word_bits=word_bits,
            level_scale_bits=current.level_scale_bits,
            base_bits=current.base_bits,
            ks_digits=ks_digits,
            **kwargs,
        )
    _obs.count("compiler.compiled")
    return CompiledTrace(
        trace=current,
        scheme=scheme,
        word_bits=word_bits,
        source_digest=source_digest,
        digest=content_digest(current),
        passes=tuple(passes),
        levels_before=trace.max_level + 1,
        levels_after=current.max_level + 1,
        log2_q_before=before.log2_q[-1] if before.log2_q else math.nan,
        log2_q_after=after.log2_q[-1] if after.log2_q else math.nan,
        noise_margin_before=before.min_noise_margin_bits,
        noise_margin_after=after.min_noise_margin_bits,
        ops_elided=ops_elided,
        chain=chain,
    )


def compile_workloads(
    schemes: Sequence[str] = ("bitpacker", "rns-ckks"),
    word_bits: int = 28,
    *,
    plan: bool = False,
) -> list[CompiledTrace]:
    """Compile every bundled workload trace (the CI / CLI sweep)."""
    from repro.workloads import workload_traces

    out = []
    for scheme in schemes:
        for trace in workload_traces(schemes=(scheme,), word_bits=word_bits):
            out.append(
                compile_trace(
                    trace, scheme=scheme, word_bits=word_bits, plan=plan
                )
            )
    return out


def render_report(compiled: Sequence[CompiledTrace]) -> str:
    """Human-readable savings table for a batch of compilations."""
    header = (
        f"{'workload':34s} {'scheme':9s} {'levels':>13s} {'log2Q':>17s} "
        f"{'margin':>13s} {'elided':>7s}"
    )
    lines = [header, "-" * len(header)]
    for c in compiled:
        lines.append(
            f"{c.trace.name:34s} {c.scheme:9s} "
            f"{c.levels_before:5d} -> {c.levels_after:4d} "
            f"{c.log2_q_before:7.1f} -> {c.log2_q_after:7.1f} "
            f"{c.noise_margin_before:5.1f} -> {c.noise_margin_after:4.1f} "
            f"{c.ops_elided:7g}"
        )
    total_levels = sum(c.levels_saved for c in compiled)
    total_q = sum(c.log2_q_saved for c in compiled)
    lines.append(
        f"total: {total_levels} level(s) and {total_q:.1f} log2(Q) bits "
        f"saved across {len(compiled)} workload(s)"
    )
    return "\n".join(lines)
