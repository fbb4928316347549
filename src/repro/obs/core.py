"""Observability core: the one switch of the hot boundaries, their
entry points, spans and counters.

:data:`ACTIVE` means "a listener is attached at the hot boundaries".
The two listeners are the *recorder* (:func:`enable`/:func:`disable`,
reported by :func:`enabled`: spans and counters) and the *checker*, the
runtime sanitizer :mod:`repro.analysis.sanitize`, which attaches itself
(:func:`attach_checker`) on ``sanitize.enable()``, ``REPRO_SANITIZE=1``
or ``record_ops()``.  Hot code tests the switch and, only when it is
on, makes one call — :func:`kernel` after a kernel, :func:`op` on an
evaluator op's return path, :func:`check_residues`/
:func:`check_ciphertext` at construction — which serves whichever
listeners are attached.  So no hot module decides which counter, check
or log its boundary feeds, and none imports the sanitizer.

The recorder is **concurrency-safe within the process**: the open-span
chain lives in a ``contextvars.ContextVar``, so interleaved asyncio
tasks (the serve layer, DESIGN.md Sec. 12) and threads each build their
own correctly-nested tree, and the shared sinks (finished roots,
counters) are lock-protected.  :func:`span` records hierarchical
wall/CPU/peak-RSS regions, drained with :func:`take_roots` (their
distributions: :func:`repro.obs.export.span_quantiles`); :func:`count`
keeps float-valued counters.  Nothing here imports numpy or the
RNS/CKKS stack, so the hook sites add no import weight.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None

#: The one switch: a listener is attached at the hot boundaries.  Hook
#: sites read this attribute directly (``if core.ACTIVE: core.kernel(...)``)
#: so the path with no listener is a single branch.
ACTIVE = False

#: Whether the recorder (spans and counters) is on.
_RECORDER_ON = False
#: The attached checker (the sanitizer module), or ``None``.
_CHECKER = None


def _update_switch() -> None:
    global ACTIVE
    ACTIVE = _RECORDER_ON or _CHECKER is not None


def enable() -> None:
    """Turn the recorder on for this process (spans/counters start)."""
    global _RECORDER_ON
    _RECORDER_ON = True
    _update_switch()


def disable() -> None:
    """Turn the recorder off; the switch stays on while a checker is
    attached."""
    global _RECORDER_ON
    _RECORDER_ON = False
    _update_switch()


def attach_checker(checker) -> None:
    """Attach ``checker`` at the hot boundaries (``None`` detaches).

    A checker provides ``check_residue_matrix(mat, moduli, where)``,
    ``check_ciphertext(ct)`` and ``observe_op(kind, ct)``.
    """
    global _CHECKER
    _CHECKER = checker
    _update_switch()


def checker():
    """The attached checker, or ``None``."""
    return _CHECKER


# ----------------------------------------------------------------------
# Hot-boundary entry points (callers test ``ACTIVE`` first)
# ----------------------------------------------------------------------
def kernel(name: str, elems: int | None = None, moduli=(), checked=()) -> None:
    """A kernel boundary, after the kernel ran.

    The recorder counts ``kernel.<name>`` (and ``kernel.<name>.elems``
    by ``elems`` when given); the checker holds each ``(where, matrix)``
    of ``checked`` to the residue rule over ``moduli``.
    """
    if _RECORDER_ON:
        count(f"kernel.{name}")
        if elems is not None:
            count(f"kernel.{name}.elems", elems)
    if _CHECKER is not None:
        for where, mat in checked:
            _CHECKER.check_residue_matrix(mat, moduli, where)


def op(out, kind: str | None, name: str | None = None) -> None:
    """An evaluator op's return path, ``out`` its result.

    The recorder counts ``op.<name>`` when ``name`` is given; the
    checker appends ``(kind, out)`` to its op log when ``kind`` is.
    """
    if _RECORDER_ON and name is not None:
        count(f"op.{name}")
    if _CHECKER is not None and kind is not None:
        _CHECKER.observe_op(kind, out)


def check_residues(mat, moduli, where: str) -> None:
    """A residue matrix at construction, held to the residue rule."""
    if _CHECKER is not None:
        _CHECKER.check_residue_matrix(mat, moduli, where)


def check_ciphertext(ct) -> None:
    """A ciphertext at construction, held to the structural rules."""
    if _CHECKER is not None:
        _CHECKER.check_ciphertext(ct)


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

    ``t0`` is an absolute ``perf_counter`` timestamp; exporters rebase it
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
    """Shared no-op context manager returned while the recorder is off."""

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
#: Guards counter mutation (read-modify-write sequences).
_METRICS_LOCK = threading.Lock()
_ROOTS: list[Span] = []
#: Epoch for exporters: every span's ``t0`` is reported relative to it.
_EPOCH = time.perf_counter()


def span(name: str, **tags):
    """A timing region; the shared no-op singleton while the recorder
    is off."""
    if not _RECORDER_ON:
        return NULL_SPAN
    return Span(name, tags)


def take_roots() -> list[Span]:
    """Drain the finished top-level spans recorded since the last call."""
    with _TREE_LOCK:
        roots = list(_ROOTS)
        _ROOTS.clear()
    return roots


def epoch() -> float:
    return _EPOCH


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
_COUNTERS: dict[str, float] = {}


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` (creating it at zero) while the
    recorder is on; otherwise do nothing, so callers need no guard.

    The read-modify-write is lock-protected: concurrent serve workers
    (threads driving kernel calls) must never lose an increment.
    """
    if not _RECORDER_ON:
        return
    with _METRICS_LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + n


def counters() -> dict[str, float]:
    """Snapshot of every counter (a copy; safe to mutate)."""
    with _METRICS_LOCK:
        return dict(_COUNTERS)


def reset() -> None:
    """Drop all recorded spans and counters; restart the profile epoch.

    Does not touch the switch — a profiling CLI run resets between
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
    _EPOCH = time.perf_counter()
