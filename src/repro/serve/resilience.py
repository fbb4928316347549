"""Serve-layer resilience primitives: retries, breakers, deadlines.

The asyncio serve layer's fault vocabulary — bounded retries with
deterministic-jitter backoff, per-request deadlines, quarantine for
inputs that fail deterministically — tuned for a request path measured
in milliseconds:

- :class:`RetryPolicy` — how a failed kernel dispatch is retried.  The
  backoff curve (:func:`backoff_delay`) is ``base * 2**(n-1)``, capped,
  jittered to [0.5x, 1.5x) by a seeded hash so two runs of the same
  load replay the same delays.
- :class:`CircuitBreaker` — the per-shard closed → open → half-open
  state machine.  Consecutive dispatch failures past a threshold open
  the breaker; while open, admission sheds load with 503-class
  responses instead of queuing work a sick shard cannot finish; after
  a cooldown the breaker admits a bounded number of probes
  (half-open) and either closes on success or re-opens on failure.
  The clock is injectable so tests drive the state machine without
  sleeping.
- :class:`DeadlineExceeded` / :func:`remaining` — per-request deadline
  bookkeeping.  Deadlines are absolute ``time.monotonic()`` instants
  propagated from ``submit()`` through coalescing into every retry
  decision, so a request never burns backoff sleeps it can no longer
  afford.

Everything here is pure bookkeeping — no asyncio imports, no sleeps —
so the policies are trivially testable and the service stays the only
place that touches the event loop.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ParameterError

#: Breaker states (string-valued so ``health()`` serializes directly).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class DeadlineExceeded(Exception):
    """A request's deadline passed before (or during) execution.

    Like :class:`repro.eval.faults.FaultInjected`, deliberately not a
    :class:`~repro.errors.ReproError`: it is an outcome of load and
    scheduling, not a caller mistake, and resolves as a 504-class
    response rather than an admission rejection.
    """


def remaining(deadline: float | None, now: float | None = None) -> float:
    """Seconds left until ``deadline`` (``inf`` when there is none)."""
    if deadline is None:
        return float("inf")
    if now is None:
        now = time.monotonic()
    return deadline - now


def backoff_delay(
    backoff: float, cap: float, salt: str, index: int, failure: int
) -> float:
    """Seconds to wait before retry ``failure`` (1-based) of item ``index``.

    ``backoff * 2**(failure-1)`` capped at ``cap``, jittered to
    [0.5x, 1.5x) by a hash of ``(salt, index, failure)`` — so the same
    item replays the same delays.
    """
    if backoff <= 0.0:
        return 0.0
    base = min(cap, backoff * 2.0 ** (failure - 1))
    blob = f"{salt}:{index}:{failure}".encode()
    jitter = int(hashlib.sha256(blob).hexdigest()[:8], 16) / 2.0**32
    return base * (0.5 + jitter)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deadline-aware retry knobs for kernel dispatches.

    ``retries`` bounds the re-dispatches of a *singleton* group — a
    failing multi-request group is split in half instead (no budget
    consumed; the bisection itself is bounded by ``log2(max_batch)``),
    so one poison request costs O(log B) extra dispatches, not O(B),
    and its peers never pay the retry budget.
    """

    #: Extra attempts after the first, per singleton dispatch.
    retries: int = 2
    #: Backoff base: retry ``n`` waits about ``backoff * 2**(n-1)``.
    backoff: float = 0.01
    backoff_cap: float = 0.25

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ParameterError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ParameterError(f"backoff must be >= 0, got {self.backoff}")

    def delay_for(self, seq: int, failure: int) -> float:
        """Backoff before retry ``failure`` (1-based) of request ``seq``.

        The jitter is a seeded hash of ``(seq, failure)``, so a replayed
        load schedule replays its exact retry timing.
        """
        return backoff_delay(
            self.backoff, self.backoff_cap, "serve-backoff", seq, failure
        )


@dataclass(frozen=True)
class BreakerPolicy:
    """When a shard's breaker opens, and how it recovers."""

    #: Consecutive dispatch failures that open the breaker.
    failure_threshold: int = 5
    #: Seconds the breaker stays open before probing (half-open).
    cooldown_s: float = 0.25
    #: Admissions allowed through while half-open.
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ParameterError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise ParameterError(
                f"cooldown_s must be >= 0, got {self.cooldown_s}"
            )
        if self.half_open_probes < 1:
            raise ParameterError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


@dataclass
class CircuitBreaker:
    """Per-shard load shedding on consecutive kernel failures.

    State machine::

        closed --[threshold consecutive failures]--> open
        open   --[cooldown elapsed, at admission]--> half-open
        half-open --[dispatch success]--> closed
        half-open --[dispatch failure]--> open  (cooldown restarts)

    ``allow()`` is consulted at admission (it performs the open →
    half-open transition and meters probes); ``record_success`` /
    ``record_failure`` are driven by dispatch outcomes.  The clock is
    injectable (``clock=``) so tests step through cooldowns without
    wall-clock sleeps.
    """

    policy: BreakerPolicy = field(default_factory=BreakerPolicy)
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.opens = 0  # lifetime open transitions (stats)
        self.shed = 0  # admissions rejected while open (stats)
        self._probes_inflight = 0

    def allow(self) -> bool:
        """Whether admission may enqueue work for this shard now."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.clock() - self.opened_at >= self.policy.cooldown_s:
                self.state = HALF_OPEN
                self._probes_inflight = 0
            else:
                self.shed += 1
                return False
        # Half-open: meter probes so one burst cannot re-flood a shard
        # that may still be sick.
        if self._probes_inflight >= self.policy.half_open_probes:
            self.shed += 1
            return False
        self._probes_inflight += 1
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self._probes_inflight = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.state = OPEN
        self.opened_at = self.clock()
        self.opens += 1
        self._probes_inflight = 0

    def snapshot(self) -> dict:
        """Serializable view for ``health()`` / ``stats()``."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
            "shed": self.shed,
        }
