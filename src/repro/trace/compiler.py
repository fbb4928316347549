"""Trace compiler: absint-certified schedule optimization.

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
2. **truncate-levels** — remove chain levels no op ever touches (unused
   bottom levels after adjusts, unused top levels), relabeling ops and
   slicing the scale targets; ``Q_top`` shrinks by the dropped targets.
3. **tighten-scales** — lower the application region's scale targets
   (the bottom uniform run) by the largest ``delta`` that keeps the
   verified noise margin at or above :data:`MIN_NOISE_MARGIN_BITS`.
4. **tighten-base** — shrink ``base_bits`` into the verifier's measured
   per-level slack, keeping :data:`BASE_SAFETY_BITS` in reserve.

The passes rewrite chain constraints and relabel levels; none adds or
drops an op, so a compiled trace keeps its source's ops one for one.
This is bound-driven width assignment: each pass narrows the chain to
what the verifier's bounds prove the schedule needs.

**Soundness.**  Every rewrite is certified: the pipeline re-runs
``verify_trace`` after each pass and reverts the pass wholesale if it
introduced any violation or dropped the noise margin below the floor.
The final trace is certified once more by ``verify_or_raise``, so a
:class:`CompiledTrace` is by construction violation-free.

The result carries provenance: the canonical content digest of both the
source and the compiled trace (:func:`repro.trace.program
.content_digest`).  The two digests differ whenever a pass rewrote the
schedule, so the verify gate, keyed on content, certifies the compiled
trace on its own.

:func:`compile_trace` and the ``compile-trace`` CLI (which calls
:func:`compile_workloads` on the bundled traces) are the only entry
points; the figures and the service run the recorded schedules.
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
from repro.trace.program import HeTrace, OpKind, content_digest

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
    chain: "ModulusChain | None" = None

    @property
    def levels_saved(self) -> int:
        return self.levels_before - self.levels_after

    @property
    def log2_q_saved(self) -> float:
        return self.log2_q_before - self.log2_q_after


# -- rewrite passes ------------------------------------------------------
# Each pass maps (trace, its VerifyResult) to (new trace, rewrite count,
# human detail).  Passes may assume the input verified clean; the driver
# re-verifies their output and reverts on any violation.


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
    table = trace.distinct_ops()  # relabel each distinct op once
    relabelled = [
        replace(op, level=op.level - bottom,
                dst_level=None if op.dst_level is None else op.dst_level - bottom)
        for op in table.ops
    ]
    new = replace(
        trace,
        level_scale_bits=trace.level_scale_bits[bottom:top + 1],
        ops=tuple(relabelled[i] for i in table.at.tolist()),
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

    The largest whole-bit reduction that verifies clean wins.  The full
    slack is tried first; if it fails, the reductions that verify are a
    prefix (a narrower base only tightens every level), so bisection
    finds the largest in at most 64 more verifications, however large
    ``base_bits`` is.
    """
    slack = result.slack_bits
    if not slack or not math.isfinite(min(slack)):
        return trace, 0.0, ""

    def verifies(delta: int) -> bool:
        shrunk = replace(trace, base_bits=trace.base_bits - float(delta))
        return not verify_trace(shrunk).findings

    good, bad = 0, int(min(slack) - BASE_SAFETY_BITS) + 1
    if bad > 1 and verifies(bad - 1):
        good = bad - 1
    else:
        while bad - good > 1:
            mid = (good + bad) // 2
            good, bad = (mid, bad) if verifies(mid) else (good, mid)
    if good == 0:
        return trace, 0.0, ""
    delta = float(good)
    return (
        replace(trace, base_bits=trace.base_bits - delta),
        delta,
        f"base {trace.base_bits:g} -> {trace.base_bits - delta:g} bits",
    )


#: The pipeline, in order.
_PIPELINE: tuple[tuple[str, Callable], ...] = (
    ("truncate-levels", _pass_truncate_levels),
    ("tighten-scales", _pass_tighten_scales),
    ("tighten-base", _pass_tighten_base),
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
    before = verify_or_raise(trace)
    source_digest = content_digest(trace)

    # Certify every rewrite: any violation, or a margin below both the
    # floor and what the input already had, reverts the pass.
    floor = min(MIN_NOISE_MARGIN_BITS, before.min_noise_margin_bits)
    current, result = trace, before
    passes: list[PassResult] = []
    for name, fn in _PIPELINE:
        candidate, rewrites, detail = fn(current, result)
        if rewrites:
            check = verify_trace(candidate)
            if check.findings or check.min_noise_margin_bits < floor:
                rewrites, detail = 0.0, ""
            else:
                current, result = candidate, check
                _obs.count(f"compiler.pass.{name}.rewrites", rewrites)
        passes.append(PassResult(name, rewrites, detail))

    after = verify_or_raise(current)
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
        f"{'margin':>13s}"
    )
    lines = [header, "-" * len(header)]
    for c in compiled:
        lines.append(
            f"{c.trace.name:34s} {c.scheme:9s} "
            f"{c.levels_before:5d} -> {c.levels_after:4d} "
            f"{c.log2_q_before:7.1f} -> {c.log2_q_after:7.1f} "
            f"{c.noise_margin_before:5.1f} -> {c.noise_margin_after:4.1f}"
        )
    total_levels = sum(c.levels_saved for c in compiled)
    total_q = sum(c.log2_q_saved for c in compiled)
    lines.append(
        f"total: {total_levels} level(s) and {total_q:.1f} log2(Q) bits "
        f"saved across {len(compiled)} workload(s)"
    )
    return "\n".join(lines)
