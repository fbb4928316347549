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
- **Noise.**  A fresh budget at each bootstrap entry, burned per op by
  the :class:`~repro.ckks.noise.NoiseModel` rules over a trace-level
  chain view.  Counts being parallel multiplicity, an add op costs one
  pairwise join; the trace IR records no dataflow tree depth (a future
  compiler concern, see ROADMAP).

Violations and waste diagnostics come back as standard
:class:`~repro.analysis.core.Finding` objects (``path`` is
``trace:<name>``, ``line`` the op index) so the CLI renders file and
trace findings uniformly; rule-level suppression uses the ``ignore``
argument (``--suppress`` on the CLI), the trace analogue of source
pragmas.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.analysis.core import Finding
from repro.errors import ScheduleViolationError
from repro.trace.program import HeTrace, OpKind, content_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitize import OpObservation
    from repro.ckks.noise import NoiseEstimate, NoiseModel

#: An operand scale more than this many bits off the level's canonical
#: scale makes an add/mul meaningless (rescale rounding stays far below).
SCALE_TOLERANCE_BITS = 0.5

#: Bits a value must clear below its level's modulus.  The tightest
#: bundled chain (BS26 over a 45-bit app: ``Q_0 = 51``) leaves 6 bits of
#: residency slack and 6 over the level-1 product, so 4 flags real
#: encroachment without tripping the paper's own schedules.
HEADROOM_BITS = 4.0

#: Rule ids the verifier can emit as violations, with one-line docs
#: (surfaced by ``--list-rules`` and the SARIF rule table).
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

#: Rule ids for waste diagnostics (the future compiler's optimization
#: targets); never failures, reported only on request.
WASTE_RULES: dict[str, str] = {
    "trace-elidable-rescale": "rescale of a never-multiplied ciphertext",
    "trace-elidable-adjust": "adjust from a level with no live compute",
    "trace-slack-bits": "base modulus leaves a full word of slack",
}

_BINARY_KINDS = frozenset(
    {OpKind.HADD, OpKind.HMUL, OpKind.PADD, OpKind.PMUL}
)
_MUL_KINDS = frozenset({OpKind.HMUL, OpKind.PMUL})


def min_scale_bits(n: int) -> float:
    """Smallest post-rescale scale that keeps any precision at all.

    One rounded division by the scale leaves a value-domain error of
    ``~sqrt(n/12)`` coefficient units over the scale
    (:meth:`~repro.ckks.noise.NoiseModel.rounding_floor_bits`), so
    error-free bits after a rescale are ``scale - 0.5*log2(n) - 2.5``;
    requiring 4 real bits gives this floor.
    """
    return 0.5 * math.log2(n) + 6.5


@dataclass(frozen=True)
class OpRecord:
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
    waste: list[Finding]
    records: list[OpRecord]
    bootstraps: int
    min_noise_margin_bits: float
    #: Per-level modulus widths implied by the scale targets (``None``
    #: when the targets are infeasible).
    log2_q: tuple[float, ...] | None
    #: Per-level spare bits under the widest product (or the canonical
    #: scale where no product happened), after headroom.
    slack_bits: tuple[float, ...] | None

    @property
    def ok(self) -> bool:
        return not self.findings


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


@dataclass(frozen=True)
class _Abstract:
    """The live cursor ciphertext: level, scale interval, product flag."""

    level: int
    lo: float
    hi: float
    product: bool  # ``hi`` includes an un-rescaled product


class _Engine:
    def __init__(
        self,
        trace: HeTrace,
        word_bits: int,
        headroom_bits: float,
        tolerance_bits: float,
    ):
        self.trace = trace
        self.word_bits = word_bits
        self.headroom = headroom_bits
        self.tolerance = tolerance_bits
        self.targets = trace.level_scale_bits
        self.max_level = trace.max_level
        self.min_scale = min_scale_bits(trace.n)
        self.findings: list[Finding] = []
        self.waste: list[Finding] = []
        self.records: list[OpRecord] = []
        self._model: "NoiseModel | None" = None

    # -- noise ---------------------------------------------------------
    @property
    def model(self) -> "NoiseModel":
        # Imported lazily: analysis/__init__ must stay importable from
        # inside the RNS hot paths, which sit below repro.ckks.
        if self._model is None:
            from repro.ckks.noise import NoiseModel

            self._model = NoiseModel.from_level_scales(
                self.trace.n, self.targets
            )
        return self._model

    # -- chain feasibility --------------------------------------------
    def _feasible_widths(self) -> tuple[float, ...] | None:
        trace = self.trace
        bad = False
        for level in range(1, self.max_level + 1):
            rho = 2.0 * self.targets[level] - self.targets[level - 1]
            if rho <= 0:
                bad = True
                self.findings.append(
                    _finding(
                        trace, 0, "trace-infeasible-chain",
                        f"level {level} sheds {rho:g} bits "
                        f"(2*{self.targets[level]:g} - "
                        f"{self.targets[level - 1]:g}): scale targets admit "
                        "no positive prime width",
                    )
                )
        if bad:
            return None
        q = level_modulus_bits(trace)
        for level, width in enumerate(q):
            if width < self.targets[level]:
                bad = True
                self.findings.append(
                    _finding(
                        trace, 0, "trace-infeasible-chain",
                        f"level {level} modulus 2^{width:g} cannot hold its "
                        f"canonical scale 2^{self.targets[level]:g}; raise "
                        "base_bits or lower the scale targets",
                    )
                )
        return None if bad else q

    # -- driver --------------------------------------------------------
    def run(self) -> VerifyResult:
        trace = self.trace
        q = self._feasible_widths()
        state: _Abstract | None = None
        noise: "NoiseEstimate | None" = None
        noise_flagged = False
        bootstraps = 0
        min_margin = math.inf
        last_compute: dict[int, int] = {}
        last_adjust_from: dict[int, int] = {}
        product_peak: dict[int, float] = {}
        # Bootstrap-span tracking for the waste diagnostics: the ladder's
        # rescales/adjusts perform load-bearing scale conversions between
        # stage scales (CtS -> EvalMod -> StC -> app), so they are never
        # elidable even when no product is live.  ``app_top`` is the top
        # of the bottom uniform-scale run (the application region); the
        # cursor is "in span" from a bootstrap entry until it descends
        # back to or below it.
        app_top = 0
        while (
            app_top + 1 <= self.max_level
            and self.targets[app_top + 1] == self.targets[0]
        ):
            app_top += 1
        in_span = False

        def fresh(level: int) -> tuple[_Abstract, "NoiseEstimate"]:
            t = self.targets[level]
            return _Abstract(level, t, t, False), self.model.fresh(level)

        for index, op in enumerate(trace.ops):
            if op.count == 0:
                continue
            lvl = op.level
            if not 0 <= lvl <= self.max_level:
                hint = (
                    " (below level 0: bootstrap before consuming more levels)"
                    if lvl < 0
                    else ""
                )
                self.findings.append(
                    _finding(
                        trace, index, "trace-level-range",
                        f"{op.kind.value} at level {lvl} outside chain "
                        f"[0, {self.max_level}]{hint}",
                    )
                )
                continue

            if op.kind is OpKind.RESCALE and lvl == 0:
                self.findings.append(
                    _finding(
                        trace, index, "trace-terminal-rescale",
                        "rescale at level 0: the chain is already terminal; "
                        "insert a bootstrap instead",
                    )
                )
                continue

            if op.kind is OpKind.ADJUST:
                dst = op.dst_level if op.dst_level is not None else lvl
                if dst >= lvl:
                    self.findings.append(
                        _finding(
                            trace, index, "trace-adjust-up",
                            f"adjust from level {lvl} to {dst}: adjust only "
                            "moves down the chain (up requires a bootstrap)",
                        )
                    )
                    continue
                if dst < 0:
                    self.findings.append(
                        _finding(
                            trace, index, "trace-level-range",
                            f"adjust destination level {dst} below 0",
                        )
                    )
                    continue
                if not in_span and (
                    last_compute.get(lvl, -1) <= last_adjust_from.get(lvl, -1)
                ):
                    self.waste.append(
                        _finding(
                            trace, index, "trace-elidable-adjust",
                            f"adjust from level {lvl} with no compute there "
                            "since the previous adjust: the source value "
                            "could have been produced at its target level",
                        )
                    )
                last_adjust_from[lvl] = index
                if dst <= app_top:
                    in_span = False
                if state is not None and state.level == dst:
                    # The adjusted value joins the live cursor's level:
                    # the cursor keeps whatever product it carries and
                    # gains a canonical-scale operand.
                    t = self.targets[dst]
                    state = _Abstract(
                        dst, min(state.lo, t), max(state.hi, t), state.product
                    )
                else:
                    state, _ = fresh(dst)
                base_noise = (
                    noise if noise is not None else self.model.fresh(lvl)
                )
                noise = self.model.after_adjust(base_noise, dst)
                min_margin = self._record(op, index, state, noise, min_margin)
                continue

            if op.kind is OpKind.RESCALE:
                if state is None:
                    state, noise = fresh(lvl)
                elif state.level != lvl:
                    self.findings.append(
                        self._flow_finding(index, op, state.level)
                    )
                    state, noise = fresh(lvl)
                rho = 2.0 * self.targets[lvl] - self.targets[lvl - 1]
                out = state.hi - rho
                if out < self.min_scale:
                    self.findings.append(
                        _finding(
                            trace, index, "trace-rescale-below-min",
                            f"rescale at level {lvl} drops the scale to "
                            f"2^{out:g}, below the 2^{self.min_scale:g} "
                            f"precision floor for n={trace.n} (multiply "
                            "before rescaling)",
                        )
                    )
                elif not state.product and not in_span:
                    self.waste.append(
                        _finding(
                            trace, index, "trace-elidable-rescale",
                            f"rescale at level {lvl} of a never-multiplied "
                            "ciphertext: it burns a level without shedding "
                            "a product",
                        )
                    )
                if lvl - 1 <= app_top:
                    in_span = False
                state = _Abstract(lvl - 1, out, out, False)
                noise = self.model.after_rescale(noise)
                min_margin = self._record(op, index, state, noise, min_margin)
                continue

            # Compute kinds: HMUL / PMUL / HADD / PADD / HROT.
            if state is None:
                state, noise = fresh(lvl)
            elif lvl == state.level:
                pass
            elif lvl == self.max_level and lvl > state.level:
                # A jump to the top level is a bootstrap entry: the
                # refreshed ciphertext is fresh at max_level.
                bootstraps += 1
                noise_flagged = False
                in_span = True
                state, noise = fresh(lvl)
            else:
                self.findings.append(self._flow_finding(index, op, state.level))
                state, noise = fresh(lvl)
            last_compute[lvl] = index

            t = self.targets[lvl]
            lo, hi = min(state.lo, t), max(state.hi, t)
            operand = op.scale_bits if op.scale_bits is not None else t
            if op.kind in _BINARY_KINDS and op.scale_bits is not None:
                if abs(op.scale_bits - t) > self.tolerance:
                    self.findings.append(
                        _finding(
                            trace, index, "trace-scale-mismatch",
                            f"{op.kind.value} at level {lvl} with operand "
                            f"scale 2^{op.scale_bits:g} but the level's "
                            f"canonical scale is 2^{t:g}; rescale or adjust "
                            "first",
                        )
                    )
            product = state.product
            if op.kind in _MUL_KINDS:
                # HMUL squares the operand scale; PMUL multiplies by a
                # plaintext encoded at the level's canonical scale.
                product_bits = (
                    2.0 * operand if op.kind is OpKind.HMUL else operand + t
                )
                if q is not None and product_bits + self.headroom > q[lvl]:
                    self.findings.append(
                        _finding(
                            trace, index, "trace-scale-overflow",
                            f"{op.kind.value} product at level {lvl} reaches "
                            f"2^{product_bits:g} against a 2^{q[lvl]:g} "
                            f"modulus (< {self.headroom:g} bits of "
                            "headroom): rescale or adjust before multiplying",
                        )
                    )
                hi = max(hi, product_bits)
                product = True
                product_peak[lvl] = max(
                    product_peak.get(lvl, -math.inf), product_bits
                )
                noise = self.model.after_multiply(noise, noise)
            elif op.kind is OpKind.HADD:
                noise = self.model.after_add(noise, noise)
            elif op.kind is OpKind.HROT:
                noise = self.model.after_rotate(noise)
            # PADD: plaintext encoding error is below the rescale
            # rounding floor at canonical scales; the estimate is kept.
            state = _Abstract(lvl, lo, hi, product)
            min_margin = self._record(op, index, state, noise, min_margin)
            if noise.expected_precision_bits <= 0 and not noise_flagged:
                noise_flagged = True
                self.findings.append(
                    _finding(
                        trace, index, "trace-noise-exhausted",
                        f"noise budget exhausted at op {index} "
                        f"({op.kind.value} at level {lvl}): expected "
                        f"precision {noise.expected_precision_bits:.1f} "
                        "bits; bootstrap earlier or raise the scales",
                    )
                )

        slack = self._slack(q, product_peak)
        return VerifyResult(
            trace_name=trace.name,
            findings=self.findings,
            waste=self.waste,
            records=self.records,
            bootstraps=bootstraps,
            min_noise_margin_bits=min_margin,
            log2_q=q,
            slack_bits=slack,
        )

    # -- helpers -------------------------------------------------------
    def _flow_finding(self, index: int, op, cursor_level: int) -> Finding:
        return _finding(
            self.trace, index, "trace-level-flow",
            f"{op.kind.value} at level {op.level} but the live ciphertext "
            f"is at level {cursor_level}: levels change only via rescale, "
            "adjust, or a bootstrap (is a rescale missing?)",
        )

    def _record(
        self,
        op,
        index: int,
        state: _Abstract,
        noise: "NoiseEstimate",
        min_margin: float,
    ) -> float:
        margin = noise.expected_precision_bits
        self.records.append(
            OpRecord(
                index=index,
                kind=op.kind.value,
                level=state.level,
                scale_lo=state.lo,
                scale_hi=state.hi,
                noise_margin_bits=margin,
            )
        )
        return min(min_margin, margin)

    def _slack(
        self,
        q: tuple[float, ...] | None,
        product_peak: dict[int, float],
    ) -> tuple[float, ...] | None:
        if q is None:
            return None
        slack = tuple(
            q[level]
            - self.headroom
            - product_peak.get(level, self.targets[level])
            for level in range(self.max_level + 1)
        )
        # Only level 0 is actionable: Q_0 = base + T_0 - T_top and
        # base_bits is the free input, so a spare word there means the
        # chain could shed a residue.  Upper-level widths are dictated
        # by the scale schedule below them.
        if slack and slack[0] >= self.word_bits:
            self.waste.append(
                _finding(
                    self.trace, 0, "trace-slack-bits",
                    f"level 0 leaves {slack[0]:g} spare modulus bits under "
                    f"a {self.word_bits}-bit word: base_bits could shrink "
                    "by a full residue",
                )
            )
        return slack


def verify_trace(
    trace: HeTrace,
    *,
    word_bits: int = 28,
    headroom_bits: float = HEADROOM_BITS,
    tolerance_bits: float = SCALE_TOLERANCE_BITS,
    ignore: Sequence[str] = (),
) -> VerifyResult:
    """Statically verify one schedule; see the module doc for the rules.

    ``ignore`` drops findings (violations and waste alike) by rule id —
    the trace-level analogue of pragma suppression.
    """
    result = _Engine(trace, word_bits, headroom_bits, tolerance_bits).run()
    if ignore:
        dropped = frozenset(ignore)
        result.findings = [f for f in result.findings if f.rule not in dropped]
        result.waste = [f for f in result.waste if f.rule not in dropped]
    return result


def verify_traces(
    traces: Iterable[HeTrace], **kwargs
) -> tuple[list[VerifyResult], list[Finding]]:
    """Verify several traces; returns (results, concatenated violations)."""
    results = [verify_trace(trace, **kwargs) for trace in traces]
    findings = [f for result in results for f in result.findings]
    return results, findings


def verify_or_raise(trace: HeTrace, **kwargs) -> VerifyResult:
    """The pre-flight gate: raise on any violation, return the result.

    Raises :class:`~repro.errors.ScheduleViolationError`.
    """
    result = verify_trace(trace, **kwargs)
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

    def __init__(self, limit: int = 4096):
        self.limit = limit
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

    def invalidate(self, digest: str) -> bool:
        """Forget one digest's verdict; returns whether it was present."""
        with self._lock:
            present = digest in self._passed
            if present:
                del self._passed[digest]
            return present

    def digests(self) -> tuple[str, ...]:
        """Memoized digests, coldest first."""
        with self._lock:
            return tuple(self._passed)

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


def check_observations(
    result: VerifyResult,
    observed: Sequence[tuple[int, "OpObservation"]],
    tolerance_bits: float = 3.0,
) -> list[str]:
    """Cross-validate runtime observations against the abstract run.

    ``observed`` pairs each executed op's trace index with the
    REPRO_SANITIZE observation of its *result* (see
    :func:`repro.analysis.sanitize.record_ops` and
    :class:`repro.trace.execute.TraceExecutor`).  Every observed level
    must match the abstract result level exactly and every observed
    scale must fall inside the op's interval widened by
    ``tolerance_bits`` (realized chain scales sit within the planner's
    acceptance window of the targets).  Returns human-readable
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
        lo = record.scale_lo - tolerance_bits
        hi = record.scale_hi + tolerance_bits
        if not lo <= obs.scale_bits <= hi:
            mismatches.append(
                f"op {index} ({record.kind}): observed scale "
                f"2^{obs.scale_bits:.2f} outside abstract interval "
                f"[2^{record.scale_lo:g}, 2^{record.scale_hi:g}] "
                f"(±{tolerance_bits:g})"
            )
    return mismatches
