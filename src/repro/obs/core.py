"""Observability core: the master switch, spans, counters, histograms.

This module is the third zero-cost-when-off subsystem of the repo, next
to the runtime sanitizer (DESIGN.md Sec. 7) and the fault injector
(Sec. 8), and follows the same activation pattern: hook sites in hot
code guard with ``if core.ACTIVE:`` — one module-attribute read and a
branch when profiling is off, no allocation, no function call.  The
recorder is process-local and **concurrency-safe within the process**:
the open-span chain lives in a ``contextvars.ContextVar``, so
interleaved asyncio tasks (the serve layer, DESIGN.md Sec. 12) and
threads each build their own correctly-nested tree, and the shared
sinks (finished roots, counters, histograms) are lock-protected so no
increment or span is lost when recorders race.

Three primitives:

- :func:`span` — hierarchical wall/CPU/peak-RSS timing regions
  (``with obs.span("fig14/point", app="lola"): ...``).  Spans nest via
  a stack; finished top-level spans are drained with
  :func:`take_roots`.
- :func:`count` — monotonically increasing named counters (float-valued
  so kernel cycle/energy attributions can ride them too).
- :func:`observe` — scalar distributions summarized as
  count/sum/min/max (latency histograms for the runner).

Nothing here imports numpy or the RNS/CKKS stack, so the hook sites in
:mod:`repro.nt.ntt` and :mod:`repro.rns.convert` add no import weight.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None

#: The master switch.  Hook sites read this attribute directly
#: (``if core.ACTIVE: ...``) so the disabled path is a single branch.
ACTIVE = False


def enable() -> None:
    """Turn the recorder on for this process (spans/counters start)."""
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    """Turn the recorder off (hook sites go back to a dead branch)."""
    global ACTIVE
    ACTIVE = False


def enabled() -> bool:
    return ACTIVE


def now() -> float:
    """The recorder's clock (monotonic, high resolution)."""
    return time.perf_counter()


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (0 where ``resource`` is unavailable)."""
    if resource is None:  # pragma: no cover
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One finished (or open) timing region.

    ``t0`` is an absolute :func:`now` timestamp; exporters rebase it
    against the profile epoch.  ``rss_peak_delta_kb`` is the growth of
    the process's RSS high-water mark across the span — zero unless the
    span pushed a new peak, which is exactly the allocation signal a
    sweep profile needs.

    Nesting is tracked through a ``ContextVar`` holding the innermost
    open span, not a module-global stack: an asyncio task created while
    a span is open inherits that span as its parent (its spans become
    children), but spans it opens itself never leak into sibling tasks'
    chains — two concurrent tasks build two independent, correctly
    nested trees (the regression contract in
    ``test_obs_concurrency.py``).
    """

    __slots__ = (
        "name", "tags", "t0", "wall_s", "cpu_s", "rss_peak_delta_kb",
        "children", "_cpu0", "_rss0", "_parent", "_token",
    )

    def __init__(self, name: str, tags: dict):
        self.name = name
        self.tags = tags
        self.t0 = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_peak_delta_kb = 0
        self.children: list[Span] = []
        self._cpu0 = 0.0
        self._rss0 = 0
        self._parent: Span | None = None
        self._token = None

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self.t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._rss0 = _peak_rss_kb()
        self._parent = _CURRENT.get()
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self.t0
        self.cpu_s = time.process_time() - self._cpu0
        self.rss_peak_delta_kb = max(0, _peak_rss_kb() - self._rss0)
        # Token reset restores the chain to this span's parent even if
        # an inner span leaked (an exception path that skipped an
        # __exit__ cannot corrupt the tree shape).
        if self._token is not None:
            try:
                _CURRENT.reset(self._token)
            except ValueError:  # exited in a different context: detach
                _CURRENT.set(self._parent)
            self._token = None
        parent = self._parent
        if parent is not None:
            with _TREE_LOCK:
                parent.children.append(self)
        else:
            with _TREE_LOCK:
                _ROOTS.append(self)
        return False


class _NullSpan:
    """Shared no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()

#: The innermost open span of the *current* execution context.  Each
#: asyncio task / thread sees its own chain (tasks inherit the value
#: their creator had at spawn time, so their spans parent correctly).
_CURRENT: ContextVar[Span | None] = ContextVar("repro_obs_current", default=None)
#: Guards the shared mutable sinks: finished roots and the children
#: lists of spans that concurrent recorders may both close into.
_TREE_LOCK = threading.Lock()
#: Guards counter/histogram mutation (read-modify-write sequences).
_METRICS_LOCK = threading.Lock()
_ROOTS: list[Span] = []
#: Epoch for exporters: every span's ``t0`` is reported relative to it.
_EPOCH = time.perf_counter()


def span(name: str, **tags):
    """A timing region; returns the shared no-op singleton when off."""
    if not ACTIVE:
        return NULL_SPAN
    return Span(name, tags)


def current_span() -> Span | None:
    """The innermost open span of this context (``None`` outside any)."""
    return _CURRENT.get()


def take_roots() -> list[Span]:
    """Drain the finished top-level spans recorded since the last call."""
    with _TREE_LOCK:
        roots = list(_ROOTS)
        _ROOTS.clear()
    return roots


def epoch() -> float:
    return _EPOCH


# ----------------------------------------------------------------------
# Counters and histograms
# ----------------------------------------------------------------------
_COUNTERS: dict[str, float] = {}
_HISTOGRAMS: dict[str, dict[str, float]] = {}


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` (creating it at zero).

    The read-modify-write is lock-protected: concurrent serve workers
    (threads driving kernel calls) must never lose an increment.
    """
    with _METRICS_LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + n


def observe(name: str, value: float) -> None:
    """Record one sample of the scalar distribution ``name``."""
    with _METRICS_LOCK:
        hist = _HISTOGRAMS.get(name)
        if hist is None:
            _HISTOGRAMS[name] = {
                "count": 1, "sum": value, "min": value, "max": value,
            }
            return
        hist["count"] += 1
        hist["sum"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value


def counters() -> dict[str, float]:
    """Snapshot of every counter (a copy; safe to mutate)."""
    with _METRICS_LOCK:
        return dict(_COUNTERS)


def histograms() -> dict[str, dict[str, float]]:
    """Snapshot of every histogram summary (a deep copy)."""
    with _METRICS_LOCK:
        return {name: dict(h) for name, h in _HISTOGRAMS.items()}


def reset() -> None:
    """Drop all recorded spans and metrics; restart the profile epoch.

    Does not touch :data:`ACTIVE` — a profiling CLI run resets between
    figures while staying enabled.  Only the *current* context's open
    span is discarded; other tasks' open chains end naturally when
    their spans exit (orphaned roots are then drained as usual).
    """
    global _EPOCH
    _CURRENT.set(None)
    with _TREE_LOCK:
        _ROOTS.clear()
    with _METRICS_LOCK:
        _COUNTERS.clear()
        _HISTOGRAMS.clear()
    _EPOCH = time.perf_counter()
