"""Abstract interpretation of FHE schedules: the static judge for traces.

``verify_trace`` walks a :class:`~repro.trace.program.HeTrace` with an
*abstract ciphertext* — level, a scale-bits interval, and a noise-budget
lower bound from :mod:`repro.ckks.noise` — applying one transfer function
per :class:`~repro.trace.program.OpKind`.  Everything it needs is derivable
from the trace's chain-planning constraints alone, before any scheme
plans a concrete chain:

- **Per-level modulus widths.**  Both planners satisfy the rescale
  algebra ``scale[l-1] = scale[l]^2 * Q[l-1]/Q[l]`` (see
  :mod:`repro.schemes.bitpacker`), so level ``l``'s prime sheds
  ``rho_l = 2*T_l - T_{l-1}`` bits where ``T`` are the trace's per-level
  scale targets, and the widths telescope down from
  ``Q_top = base + sum(T[1:])``.
- **Scale transfer.**  A ciphertext at level ``l`` is canonical at
  ``T_l``; HMUL doubles the operand scale, PMUL adds the level's
  canonical plaintext scale, RESCALE subtracts ``rho_l`` and drops a
  level, ADJUST lands canonical at its destination.  Op ``count`` is
  *parallel multiplicity* (the walkers record 28 independent adds as one
  op with ``count=28``), so transfer joins states instead of composing
  them ``count`` times.
- **Level flow.**  Traces from :class:`~repro.workloads.walker
  .ProgramWalker` have a single live cursor: levels change only via
  RESCALE (down one), ADJUST (to ``dst``), or a bootstrap (a jump to the
  top level, which re-encrypts).  Any other level discontinuity means a
  rescale went missing or an op targets a dead level.
- **Noise.**  A fresh budget at each bootstrap entry, burned per op
  against the per-level fresh, rounding-floor and keyswitch tables of
  :func:`~repro.ckks.noise.noise_tables`, built from the trace's scale
  targets and combined by the one quadrature join
  (:func:`~repro.ckks.noise.join_bits`).  This loop is the only place
  the noise rules are applied.  Counts being parallel
  multiplicity, an add op costs one pairwise join; the trace IR records
  no dataflow tree depth (a future compiler concern, see ROADMAP).

The whole run is one loop over the ops, whose state is four scalar
locals: the cursor's level, its scale interval ``lo``/``hi`` and its
log2 error.  Per op it reads the noise tables and calls the join; it
builds no state object, and each op's record stays a plain tuple until
:attr:`VerifyResult.records` is read.  That costs about 1.2 µs per op
(2-core Xeon, CPython 3.11): the 14 schedules one ``model_sweep`` pass
walks hold 32,180 ops and verify in about 40 ms.

Violations come back as standard :class:`~repro.analysis.core.Finding`
objects (``path`` is ``trace:<name>``, ``line`` the op index) so the CLI
renders file and trace findings uniformly.  The result also carries the
per-level modulus widths and slack that the trace compiler
(:mod:`repro.trace.compiler`) tightens chains into.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from repro.analysis.core import Finding
from repro.errors import ScheduleViolationError
from repro.trace.program import HeTrace, OpKind, content_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitize import OpObservation

#: An operand scale more than this many bits off the level's canonical
#: scale makes an add/mul meaningless (rescale rounding stays far below).
SCALE_TOLERANCE_BITS = 0.5

#: Bits a value must clear below its level's modulus.  The tightest
#: bundled chain (BS26 over a 45-bit app: ``Q_0 = 51``) leaves 6 bits of
#: residency slack and 6 over the level-1 product, so 4 flags real
#: encroachment without tripping the paper's own schedules.
HEADROOM_BITS = 4.0

#: Rule ids the verifier can emit as violations, with one-line docs
#: (surfaced by ``--list-rules`` and the JSON report's descriptions).
VIOLATION_RULES: dict[str, str] = {
    "trace-level-range": "op level outside [0, max_level]",
    "trace-terminal-rescale": "rescale at level 0 (only bootstrap restores)",
    "trace-adjust-up": "adjust destination at or above its source",
    "trace-scale-mismatch": "recorded operand scale off the level's canonical",
    "trace-level-flow": "level changed without a rescale/adjust/bootstrap",
    "trace-scale-overflow": "product scale encroaches on the level modulus",
    "trace-rescale-below-min": "rescale output below the precision floor",
    "trace-noise-exhausted": "noise budget spent before the next bootstrap",
    "trace-infeasible-chain": "scale targets admit no realizable chain",
}

def min_scale_bits(n: int) -> float:
    """Smallest post-rescale scale that keeps any precision at all.

    One rounded division by the scale leaves a value-domain error of
    ``~sqrt(n/12)`` coefficient units over the scale
    (the floor table of :func:`~repro.ckks.noise.noise_tables`), so
    error-free bits after a rescale are ``scale - 0.5*log2(n) - 2.5``;
    requiring 4 real bits gives this floor.
    """
    return 0.5 * math.log2(n) + 6.5


class OpRecord(NamedTuple):
    """The abstract state *after* one trace op (the op's result).

    ``level`` is the result's level (post-rescale/adjust), the scale
    interval brackets every concrete scale the op can produce, and
    ``noise_margin_bits`` is the remaining error-free mantissa bits —
    the quantities the REPRO_SANITIZE runtime observations are checked
    against in :func:`check_observations`.
    """

    index: int
    kind: str
    level: int
    scale_lo: float
    scale_hi: float
    noise_margin_bits: float


@dataclass
class VerifyResult:
    """Everything one abstract run over a trace produced."""

    trace_name: str
    findings: list[Finding]
    #: Each op's record as a plain tuple in :class:`OpRecord`'s field
    #: order; :attr:`records` wraps them on first read.
    rows: list[tuple]
    bootstraps: int
    min_noise_margin_bits: float
    #: Per-level modulus widths implied by the scale targets (``None``
    #: when the targets are infeasible).
    log2_q: tuple[float, ...] | None
    #: Per-level spare bits under the widest product (or the canonical
    #: scale where no product happened), after headroom; the compiler's
    #: tighten-base pass shrinks ``base_bits`` into them.
    slack_bits: tuple[float, ...] | None

    @property
    def ok(self) -> bool:
        return not self.findings

    @cached_property
    def records(self) -> list[OpRecord]:
        return [OpRecord._make(row) for row in self.rows]


def level_modulus_bits(trace: HeTrace) -> tuple[float, ...]:
    """Per-level ``log2 Q`` implied by the trace's scale targets alone.

    ``Q_top = base + sum(T[1:])`` and each level sheds
    ``rho_l = 2*T_l - T_{l-1}`` bits — the planner recursion of
    :mod:`repro.schemes.bitpacker` read off the constraints.  Widths may
    come back non-monotone or below their level's scale for infeasible
    targets; :func:`verify_trace` turns that into findings.
    """
    targets = trace.level_scale_bits
    top = len(targets) - 1
    q = [0.0] * (top + 1)
    q[top] = trace.base_bits + sum(targets[1:])
    for level in range(top, 0, -1):
        q[level - 1] = q[level] - (2.0 * targets[level] - targets[level - 1])
    return tuple(q)


def _finding(trace: HeTrace, index: int, rule: str, message: str) -> Finding:
    return Finding(
        rule=rule, path=f"trace:{trace.name}", line=index, col=0, message=message
    )


def _feasible_widths(
    trace: HeTrace, findings: list[Finding]
) -> tuple[float, ...] | None:
    """:func:`level_modulus_bits`, or ``None`` with findings when the
    scale targets admit no realizable chain."""
    targets = trace.level_scale_bits
    bad = False
    for level in range(1, trace.max_level + 1):
        rho = 2.0 * targets[level] - targets[level - 1]
        if rho <= 0:
            bad = True
            findings.append(
                _finding(
                    trace, 0, "trace-infeasible-chain",
                    f"level {level} sheds {rho:g} bits "
                    f"(2*{targets[level]:g} - {targets[level - 1]:g}): "
                    "scale targets admit no positive prime width",
                )
            )
    if bad:
        return None
    q = level_modulus_bits(trace)
    for level, width in enumerate(q):
        if width < targets[level]:
            bad = True
            findings.append(
                _finding(
                    trace, 0, "trace-infeasible-chain",
                    f"level {level} modulus 2^{width:g} cannot hold its "
                    f"canonical scale 2^{targets[level]:g}; raise "
                    "base_bits or lower the scale targets",
                )
            )
    return None if bad else q


def _flow_finding(trace: HeTrace, index: int, op, cursor_level: int) -> Finding:
    return _finding(
        trace, index, "trace-level-flow",
        f"{op.kind.value} at level {op.level} but the live ciphertext "
        f"is at level {cursor_level}: levels change only via rescale, "
        "adjust, or a bootstrap (is a rescale missing?)",
    )


def verify_trace(trace: HeTrace) -> VerifyResult:
    """Statically verify one schedule; see the module doc for the rules."""
    # Imported here: analysis/__init__ must stay importable from inside
    # the RNS hot paths, which sit below repro.ckks.
    from repro.ckks.noise import join_bits, noise_tables, precision_bits

    targets = trace.level_scale_bits
    max_level = trace.max_level
    min_scale = min_scale_bits(trace.n)
    findings: list[Finding] = []
    q = _feasible_widths(trace, findings)
    fresh_bits, floor_bits, keyswitch_bits = noise_tables(trace.n, targets)
    hmul, pmul, hadd, hrot = OpKind.HMUL, OpKind.PMUL, OpKind.HADD, OpKind.HROT
    rescale, adjust = OpKind.RESCALE, OpKind.ADJUST

    # The live cursor ciphertext: its level (-1 before the first op
    # lands), scale interval (``hi`` includes any un-rescaled product)
    # and log2 error.
    level = -1
    lo = hi = err = 0.0
    rows: list[tuple] = []
    record = rows.append
    noise_flagged = False
    bootstraps = 0
    min_margin = math.inf
    product_peak: dict[int, float] = {}

    for index, op in enumerate(trace.ops):
        if op.count == 0:
            continue
        kind = op.kind
        lvl = op.level
        if not 0 <= lvl <= max_level:
            hint = (
                " (below level 0: bootstrap before consuming more levels)"
                if lvl < 0
                else ""
            )
            findings.append(
                _finding(
                    trace, index, "trace-level-range",
                    f"{kind.value} at level {lvl} outside chain "
                    f"[0, {max_level}]{hint}",
                )
            )
            continue

        if kind is adjust:
            dst = op.dst_level if op.dst_level is not None else lvl
            if dst >= lvl:
                findings.append(
                    _finding(
                        trace, index, "trace-adjust-up",
                        f"adjust from level {lvl} to {dst}: adjust only "
                        "moves down the chain (up requires a bootstrap)",
                    )
                )
                continue
            if dst < 0:
                findings.append(
                    _finding(
                        trace, index, "trace-level-range",
                        f"adjust destination level {dst} below 0",
                    )
                )
                continue
            if level < 0:
                err = fresh_bits[lvl]
            t = targets[dst]
            if level == dst:
                # The adjusted value joins the live cursor's level: the
                # cursor keeps whatever product it carries and gains a
                # canonical-scale operand.
                lo = t if t < lo else lo
                hi = t if t > hi else hi
            else:
                lo = hi = t
            level = dst
            err = join_bits(err, floor_bits[dst])
            margin = precision_bits(err)
            record((index, kind._value_, level, lo, hi, margin))
            if margin < min_margin:
                min_margin = margin
            continue

        if kind is rescale:
            if lvl == 0:
                findings.append(
                    _finding(
                        trace, index, "trace-terminal-rescale",
                        "rescale at level 0: the chain is already terminal; "
                        "insert a bootstrap instead",
                    )
                )
                continue
            if level != lvl:
                if level >= 0:
                    findings.append(_flow_finding(trace, index, op, level))
                hi = targets[lvl]
                err = fresh_bits[lvl]
            out = hi - (2.0 * targets[lvl] - targets[lvl - 1])
            if out < min_scale:
                findings.append(
                    _finding(
                        trace, index, "trace-rescale-below-min",
                        f"rescale at level {lvl} drops the scale to "
                        f"2^{out:g}, below the 2^{min_scale:g} "
                        f"precision floor for n={trace.n} (multiply "
                        "before rescaling)",
                    )
                )
            level = lvl - 1
            lo = hi = out
            err = join_bits(err, floor_bits[level])
            margin = precision_bits(err)
            record((index, kind._value_, level, lo, hi, margin))
            if margin < min_margin:
                min_margin = margin
            continue

        # Compute kinds: HMUL / PMUL / HADD / PADD / HROT.
        t = targets[lvl]
        if level != lvl:
            if level < 0:
                pass
            elif lvl == max_level:
                # A jump to the top level is a bootstrap entry: the
                # refreshed ciphertext is fresh at max_level.
                bootstraps += 1
                noise_flagged = False
            else:
                findings.append(_flow_finding(trace, index, op, level))
            level = lvl
            lo = hi = t
            err = fresh_bits[lvl]
        else:
            lo = t if t < lo else lo
            hi = t if t > hi else hi
        scale = op.scale_bits
        if scale is None:
            operand = t
        else:
            operand = scale
            if kind is not hrot and abs(scale - t) > SCALE_TOLERANCE_BITS:
                findings.append(
                    _finding(
                        trace, index, "trace-scale-mismatch",
                        f"{kind.value} at level {lvl} with operand "
                        f"scale 2^{scale:g} but the level's canonical "
                        f"scale is 2^{t:g}; rescale or adjust first",
                    )
                )
        if kind is hmul or kind is pmul:
            # HMUL squares the operand scale; PMUL multiplies by a
            # plaintext encoded at the level's canonical scale.
            product = 2.0 * operand if kind is hmul else operand + t
            if q is not None and product + HEADROOM_BITS > q[lvl]:
                findings.append(
                    _finding(
                        trace, index, "trace-scale-overflow",
                        f"{kind.value} product at level {lvl} reaches "
                        f"2^{product:g} against a 2^{q[lvl]:g} "
                        f"modulus (< {HEADROOM_BITS:g} bits of "
                        "headroom): rescale or adjust before multiplying",
                    )
                )
            hi = product if product > hi else hi
            if product > product_peak.get(lvl, -math.inf):
                product_peak[lvl] = product
            err = join_bits(err, keyswitch_bits[lvl])
        elif kind is hadd:
            err = join_bits(err, err)
        elif kind is hrot:
            err = join_bits(err, keyswitch_bits[lvl])
        # PADD: plaintext encoding error is below the rescale rounding
        # floor at canonical scales; the estimate is kept.
        margin = precision_bits(err)
        record((index, kind._value_, level, lo, hi, margin))
        if margin < min_margin:
            min_margin = margin
        if margin <= 0 and not noise_flagged:
            noise_flagged = True
            findings.append(
                _finding(
                    trace, index, "trace-noise-exhausted",
                    f"noise budget exhausted at op {index} "
                    f"({kind.value} at level {lvl}): expected "
                    f"precision {margin:.1f} bits; bootstrap earlier or "
                    "raise the scales",
                )
            )

    slack = None if q is None else tuple(
        q[level] - HEADROOM_BITS - product_peak.get(level, targets[level])
        for level in range(max_level + 1)
    )
    return VerifyResult(
        trace_name=trace.name,
        findings=findings,
        rows=rows,
        bootstraps=bootstraps,
        min_noise_margin_bits=min_margin,
        log2_q=q,
        slack_bits=slack,
    )


def verify_or_raise(trace: HeTrace) -> VerifyResult:
    """The pre-flight gate: raise on any violation, return the result.

    Raises :class:`~repro.errors.ScheduleViolationError`.
    """
    result = verify_trace(trace)
    if result.findings:
        shown = "; ".join(f.render() for f in result.findings[:3])
        more = len(result.findings) - 3
        if more > 0:
            shown += f" (+{more} more)"
        raise ScheduleViolationError(
            f"schedule '{trace.name}' failed static verification: {shown}"
        )
    return result


class VerifyGate:
    """Memo of schedules that passed the gate, shared by eval and serve.

    Keyed by :func:`~repro.trace.program.content_digest`, so a rebuilt
    trace object with the same content is a hit and a compiler rewrite
    is a miss.  Only passes are remembered; a failing schedule
    re-verifies (and re-raises) every time.

    Single-flight: the first thread to miss a digest verifies while the
    rest wait on its completion event, then re-check the memo.  If the
    owner's attempt failed (invalid schedule, or the owner died) the
    waiters fall through and verify themselves — the verdict is a pure
    function of the trace, so a duplicate run cannot store a divergent
    one.  Bounded LRU: above ``limit`` the coldest digest is evicted,
    which costs one re-verification, never correctness.
    """

    #: Most digests remembered.
    limit = 4096

    def __init__(self):
        self._lock = threading.Lock()
        self._passed: OrderedDict[str, None] = OrderedDict()
        self._inflight: dict[str, threading.Event] = {}

    def admit(
        self, trace: HeTrace, verify: Callable[[HeTrace], object]
    ) -> None:
        """Return once ``trace`` has verified, running ``verify`` on a miss.

        ``verify`` is the caller's own binding of :func:`verify_or_raise`
        (eval and serve each resolve it in their namespace per call, so
        instrumentation wrapped around it there sees every real run).
        """
        digest = content_digest(trace)
        while True:
            with self._lock:
                if self._hit(digest):
                    return
                pending = self._inflight.get(digest)
                if pending is None:
                    self._inflight[digest] = threading.Event()
                    break  # this thread owns the verification
            pending.wait()
            with self._lock:
                if self._hit(digest):
                    return
            # Owner failed; loop to claim ownership and verify ourselves.
        try:
            verify(trace)
            with self._lock:
                while len(self._passed) >= self.limit:
                    self._passed.popitem(last=False)
                self._passed[digest] = None
        finally:
            with self._lock:
                done = self._inflight.pop(digest, None)
            if done is not None:
                done.set()

    def _hit(self, digest: str) -> bool:
        if digest not in self._passed:
            return False
        self._passed.move_to_end(digest)
        return True

    def clear(self) -> None:
        with self._lock:
            self._passed.clear()
            self._inflight.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._passed)


#: The one process-wide gate memo (``eval.common`` pricing and
#: ``serve`` admission both go through it).
GATE = VerifyGate()


#: How far outside its op's interval an observed scale may sit: realized
#: chain scales sit within the planner's acceptance window of the targets.
OBSERVED_SCALE_TOLERANCE_BITS = 3.0


def check_observations(
    result: VerifyResult, observed: Sequence[tuple[int, "OpObservation"]]
) -> list[str]:
    """Cross-validate runtime observations against the abstract run.

    ``observed`` pairs each executed op's trace index with the
    REPRO_SANITIZE observation of its *result* (see
    :func:`repro.analysis.sanitize.record_ops` and
    :class:`repro.trace.execute.TraceExecutor`).  Every observed level
    must match the abstract result level exactly and every observed
    scale must fall inside the op's interval widened by
    :data:`OBSERVED_SCALE_TOLERANCE_BITS`.  Returns human-readable
    mismatches; empty means the static and runtime layers agree.
    """
    by_index = {record.index: record for record in result.records}
    mismatches = []
    for index, obs in observed:
        record = by_index.get(index)
        if record is None:
            mismatches.append(f"op {index}: no abstract record")
            continue
        if obs.level != record.level:
            mismatches.append(
                f"op {index} ({record.kind}): executed at level "
                f"{obs.level}, abstract state says {record.level}"
            )
        lo = record.scale_lo - OBSERVED_SCALE_TOLERANCE_BITS
        hi = record.scale_hi + OBSERVED_SCALE_TOLERANCE_BITS
        if not lo <= obs.scale_bits <= hi:
            mismatches.append(
                f"op {index} ({record.kind}): observed scale "
                f"2^{obs.scale_bits:.2f} outside abstract interval "
                f"[2^{record.scale_lo:g}, 2^{record.scale_hi:g}] "
                f"(±{OBSERVED_SCALE_TOLERANCE_BITS:g})"
            )
    return mismatches
