"""Deterministic fault injection for the serve layer.

Retry paths fail in ways unit tests never exercise: a kernel dispatch
crashes or stalls, a worker drain hiccups, a request poisons every
batch it rides in.  This module makes those failures *injectable on a
fixed, seedable schedule*, so the code that claims to survive a fault
is tested against exactly that fault — reproducibly, because nothing
here consults a wall clock or an unseeded RNG.

Activation is either the ``BITPACKER_FAULTS`` environment variable
(read at import), ``bitpacker-serve --faults`` or the :func:`injected`
context manager in tests.  There is no switch: every hook returns at
once when no plan is installed, and every site is cold — a serve
admission, drain and dispatch.

Spec grammar (DESIGN.md Sec. 13)::

    spec    := clause (';' clause)*
    clause  := site ':' mode target?
             | 'seed=' int | 'hang=' float | 'slow=' float
             | 'stall=' float
    site    := 'serve.kernel' | 'serve.queue' | 'serve.request'
    mode    := 'raise' | 'hang' | 'slow'                 (serve.kernel)
             | 'stall'                                   (serve.queue)
             | 'poison'                                  (serve.request)
    target  := '@' index (',' index)*     fixed schedule
             | '%' float                  seeded per-index probability

Every index is a 0-based per-process count since the plan was installed:
``serve.kernel`` counts kernel *dispatches* (each retry or split
re-dispatch is a fresh index, so a scheduled fault is recoverable by
construction), ``serve.queue`` counts worker batch drains and
``serve.request`` counts admitted requests (``poison`` marks the
request so *every* dispatch containing it fails and split-and-retry
must quarantine it).  Probabilistic clauses hash ``(seed, site, mode,
index)`` into [0, 1), so two runs agree on exactly which points fail
without sharing state.  The hooks only *decide*; the asyncio service
applies delays with ``await asyncio.sleep`` so an injected hang never
blocks the event loop.

Example::

    BITPACKER_FAULTS='serve.kernel:raise@0;serve.kernel:slow%0.1;serve.queue:stall%0.25;serve.request:poison@3;slow=0.01'
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ParameterError

ENV_FAULTS = "BITPACKER_FAULTS"

SERVE_KERNEL_SITE = "serve.kernel"
SERVE_QUEUE_SITE = "serve.queue"
SERVE_REQUEST_SITE = "serve.request"

_MODES_BY_SITE = {
    SERVE_KERNEL_SITE: frozenset({"raise", "hang", "slow"}),
    SERVE_QUEUE_SITE: frozenset({"stall"}),
    SERVE_REQUEST_SITE: frozenset({"poison"}),
}

_PLAN: "FaultPlan | None" = None


class FaultInjected(Exception):
    """An injected crash.

    Deliberately *not* a :class:`repro.errors.ReproError`: it stands in
    for an arbitrary runtime crash (segfault, OOM kill, cosmic ray), so
    the serve layer must treat it as retryable, unlike deterministic
    domain errors from the library.
    """


class PoisonedRequest(FaultInjected):
    """A serve kernel dispatch that contained a poisoned request.

    Unlike a plain :class:`FaultInjected` (which fires once per
    dispatch index and is therefore transient), poison rides the
    request: every dispatch containing it raises, so the serve layer's
    split-and-retry must isolate and quarantine the request itself.
    """


@dataclass(frozen=True)
class FaultClause:
    """One ``site:mode`` clause of a fault spec."""

    site: str
    mode: str
    #: Fixed schedule: the indices this clause fires at (``None`` for
    #: probabilistic clauses).
    indices: frozenset[int] | None = None
    #: Per-index firing probability (``None`` for scheduled clauses).
    probability: float | None = None

    def fires(self, index: int, seed: int) -> bool:
        if self.indices is not None:
            return index in self.indices
        return _fraction(seed, self.site, self.mode, index) < self.probability


@dataclass
class FaultPlan:
    """A parsed fault spec plus the per-process site counters."""

    clauses: tuple[FaultClause, ...]
    seed: int = 0
    hang_seconds: float = 30.0
    #: Delay for ``serve.kernel:slow`` dispatches (a degraded kernel,
    #: not a straggler — small by default so chaos runs stay quick).
    slow_seconds: float = 0.01
    #: Delay for ``serve.queue:stall`` drains.
    stall_seconds: float = 0.02

    def __post_init__(self) -> None:
        self._next_index = dict.fromkeys(_MODES_BY_SITE, 0)

    def decide(self, site: str, index: int) -> str | None:
        """The fault mode to inject at this point, or ``None``."""
        for clause in self.clauses:
            if clause.site == site and clause.fires(index, self.seed):
                return clause.mode
        return None

    def next_decision(self, site: str) -> tuple[int, str | None]:
        """Consume ``site``'s next index: ``(index, mode or None)``."""
        index = self._next_index[site]
        self._next_index[site] = index + 1
        return index, self.decide(site, index)


def _fraction(seed: int, site: str, mode: str, index: int) -> float:
    """Deterministic hash of the injection point into [0, 1)."""
    blob = f"{seed}:{site}:{mode}:{index}".encode()
    return int(hashlib.sha256(blob).hexdigest()[:8], 16) / 2.0**32


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
#: ``name=value`` spec parts: the :class:`FaultPlan` field each sets.
_KNOBS = {
    "seed": ("seed", int),
    "hang": ("hang_seconds", float),
    "slow": ("slow_seconds", float),
    "stall": ("stall_seconds", float),
}


def parse(spec: str) -> FaultPlan:
    """Parse a ``BITPACKER_FAULTS`` spec string into a :class:`FaultPlan`."""
    clauses: list[FaultClause] = []
    knobs = {}
    for raw in spec.split(";"):
        part = raw.strip()
        name, eq, value = part.partition("=")
        if eq and name in _KNOBS:
            field, kind = _KNOBS[name]
            knobs[field] = _parse_number(value, kind, part)
        elif part:
            clauses.append(_parse_clause(part))
    return FaultPlan(clauses=tuple(clauses), **knobs)


def _parse_clause(part: str) -> FaultClause:
    site, _, rest = part.partition(":")
    if site not in _MODES_BY_SITE or not rest:
        raise ParameterError(
            f"bad fault clause {part!r}: expected "
            f"'site:mode[@i,j|%p]' with site in {sorted(_MODES_BY_SITE)}"
        )
    if "@" in rest:
        mode, _, schedule = rest.partition("@")
        indices = frozenset(
            _parse_number(token.strip(), int, part) for token in schedule.split(",")
        )
        clause = FaultClause(site=site, mode=mode, indices=indices)
    elif "%" in rest:
        mode, _, prob = rest.partition("%")
        probability = _parse_number(prob, float, part)
        if not 0.0 <= probability <= 1.0:
            raise ParameterError(
                f"bad fault clause {part!r}: probability must be in [0, 1]"
            )
        clause = FaultClause(site=site, mode=mode, probability=probability)
    else:
        # A bare `site:mode` fires at every index.
        clause = FaultClause(site=site, mode=rest, probability=1.0)
    if clause.mode not in _MODES_BY_SITE[site]:
        raise ParameterError(
            f"bad fault clause {part!r}: mode {clause.mode!r} is not valid "
            f"for site {site!r} (valid: {sorted(_MODES_BY_SITE[site])})"
        )
    return clause


def _parse_number(text: str, kind: type, context: str):
    try:
        return kind(text)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(
            f"bad fault spec part {context!r}: {text!r} is not {noun}"
        ) from exc


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def configure(spec: str | None) -> FaultPlan | None:
    """Install (or with ``None``, remove) the process's fault plan."""
    global _PLAN
    _PLAN = parse(spec) if spec else None
    return _PLAN


def active_plan() -> FaultPlan | None:
    return _PLAN


@contextmanager
def injected(spec: str) -> Iterator[FaultPlan]:
    """Context manager for tests: install ``spec``, restore on exit."""
    global _PLAN
    previous = _PLAN
    plan = configure(spec)
    try:
        yield plan
    finally:
        _PLAN = previous


# ----------------------------------------------------------------------
# Injection hooks (each returns at once when no plan is installed)
# ----------------------------------------------------------------------
def _next_decision(site: str) -> tuple[int, str | None]:
    """The installed plan's next decision at ``site``; ``(-1, None)``
    when no plan is installed."""
    return (-1, None) if _PLAN is None else _PLAN.next_decision(site)


def serve_kernel_fault() -> tuple[str, float] | None:
    """Decide the fault for the next serve kernel dispatch, if any.

    Returns ``None`` (clean dispatch) or ``(mode, delay_seconds)``:
    ``("raise", 0.0)`` means the caller must raise
    :class:`FaultInjected`; ``("hang", s)`` / ``("slow", s)`` mean the
    caller must ``await asyncio.sleep(s)`` and then proceed.  The hook
    never sleeps itself — the serve layer is single-event-loop and a
    blocking sleep here would stall every shard, not one dispatch.

    Each call consumes one dispatch index, so a retry or split
    re-dispatch is a fresh index and scheduled faults are recoverable
    by construction.
    """
    _, mode = _next_decision(SERVE_KERNEL_SITE)
    if mode == "hang":
        return ("hang", _PLAN.hang_seconds)
    if mode == "slow":
        return ("slow", _PLAN.slow_seconds)
    return None if mode is None else ("raise", 0.0)


def serve_queue_stall() -> float:
    """Seconds the next worker batch drain must stall (0.0 = clean).

    The caller applies the delay with ``await asyncio.sleep`` before
    draining, modeling a scheduler hiccup / queue-head blocking.
    """
    _, mode = _next_decision(SERVE_QUEUE_SITE)
    return _PLAN.stall_seconds if mode == "stall" else 0.0


def serve_request_poisoned() -> bool:
    """Whether the next admitted serve request is poison.

    A poisoned request deterministically fails *every* kernel dispatch
    that contains it (the serve analog of a request whose payload
    crashes the kernel), so the split-and-retry path must isolate and
    quarantine it instead of failing its batch peers.  Each call
    consumes one admission index.
    """
    return _next_decision(SERVE_REQUEST_SITE)[1] == "poison"


configure(os.environ.get(ENV_FAULTS) or None)
