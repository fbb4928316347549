"""Driver-side spans: wrap public callables, then take the tree apart.

The traced run records a span at every boundary the driver crosses by
*wrapping from outside* — an instance's public methods, or a module's
public functions — with :func:`repro.obs.span`, the repo's own
in-memory recorder (so ``ladder.trace.json`` loads beside
``obs-report --chrome-out`` output).  Spans inside the program are a
later issue; nothing under ``src/`` changes for this.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

from repro import obs


def _wrap(fn: Callable, span_name: str, ids: Mapping[str, Any],
          on_return: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # ``ids`` is read at call time: the driver updates it per
        # iteration, so every span carries its iteration's identifier.
        with obs.span(span_name, **ids):
            result = fn(*args, **kwargs)
        if on_return is not None:
            on_return(span_name, args, result)
        return result

    return wrapper


@contextmanager
def wrapped(
    target: Any,
    names: list[str],
    prefix: str,
    ids: Mapping[str, Any],
    on_return: Callable | None = None,
) -> Iterator[None]:
    """Replace ``target.<name>`` with a span-recording wrapper.

    ``target`` is an instance (the attribute shadows the class method,
    so calls the object makes on itself are seen too), a module, or a
    class.  ``on_return(span_name, args, result)`` runs after each call,
    outside its span.  The originals are restored on exit.
    """
    missing = object()
    saved = {}
    for name in names:
        saved[name] = vars(target).get(name, missing)
        setattr(
            target, name,
            _wrap(getattr(target, name), f"{prefix}.{name}", ids, on_return),
        )
    try:
        yield
    finally:
        for name, original in saved.items():
            if original is missing:
                delattr(target, name)
            else:
                setattr(target, name, original)


def public_methods(instance: Any) -> list[str]:
    """Names of an instance's public methods."""
    return [
        name
        for name, _ in inspect.getmembers(type(instance), inspect.isfunction)
        if not name.startswith("_")
    ]


@contextmanager
def recording() -> Iterator[None]:
    """Turn :mod:`repro.obs` on (spans *and* the program's counters)."""
    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


def take_trees() -> list[dict]:
    """Every finished root span as a JSON-ready tree, oldest first.

    A single-task workload has one root (``(tree,) = take_trees()``);
    the serve workloads add one per ``serve/batch`` span of the
    service's own worker tasks, which predate the driver's span.
    """
    roots = sorted(obs.take_roots(), key=lambda span: span.t0)
    return [obs.span_to_dict(root, obs.epoch()) for root in roots]


def counter_delta(before: Mapping[str, float],
                  after: Mapping[str, float]) -> dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def sum_counters(counters: Mapping[str, float], prefix: str,
                 suffix: str) -> float:
    """Sum ``prefix*suffix`` counters (backend names sit in the middle)."""
    return sum(
        v for k, v in counters.items()
        if k.startswith(prefix) and k.endswith(suffix)
    )


class SpanStats:
    """Per-name totals over a span tree: calls, wall and *self* seconds.

    Self time is a span's duration minus what its children cover — the
    glue a layer adds around the layer below it.
    """

    def __init__(self, tree: Mapping[str, Any]):
        self.calls: dict[str, int] = defaultdict(int)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._walk(tree)

    def _walk(self, node: Mapping[str, Any]) -> None:
        covered = sum(child["wall_s"] for child in node["children"])
        name = node["name"]
        self.calls[name] += 1
        self.wall_s[name] += node["wall_s"]
        self.self_s[name] += max(0.0, node["wall_s"] - covered)
        for child in node["children"]:
            self._walk(child)

    def self_where(self, predicate: Callable[[str], bool]) -> float:
        return sum(s for name, s in self.self_s.items() if predicate(name))
