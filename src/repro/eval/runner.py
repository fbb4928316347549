"""The experiment runner: an ordered, in-process map over a grid.

The per-figure harnesses (Figs. 10-19, Table 1, Secs. 6.1-6.3) evaluate
grids of ``(app, bs, scheme, word, machine)`` points.  Points recur
across figures (Figs. 15 and 16 are derived views of Fig. 14's sweep),
and the ``lru_cache`` memos in :mod:`repro.eval.common` make a repeat
free within one process.  Nothing persists between processes: every
``repro figure`` invocation runs cold (DESIGN.md Sec. 8).

A harness has one shape: it states its points (usually the ten
workloads), the variants it compares at each point (BitPacker against
RNS-CKKS, or a machine, word or budget apiece), and one model call;
:func:`map_variants` runs the grid and hands back one tuple per point,
in variant order, which the harness turns into its rows.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs import core as _obs


def configure(enabled: bool = False) -> None:
    """Does nothing: there is no disk cache left to switch.

    Kept only because the frozen benchmark ladder still calls
    ``configure(enabled=False)``; the ladder thaw (ROADMAP.md) deletes
    those calls and this function with them.
    """


def map_grid(
    func: Callable, calls: Iterable[Mapping[str, Any]]
) -> list[Any]:
    """Evaluate ``func(**kwargs)`` for every grid point, in grid order.

    The grid runs in process, so every point shares the caller's memory
    caches and the ``obs`` recorder: while profiling, the call is one
    ``map_grid`` span holding one ``task`` span per point, and whatever
    a point records nests under its own task (the task-latency
    quantiles are read off those spans,
    :func:`repro.obs.export.span_quantiles`).  An exception propagates
    from the first point that raises it.
    """
    grid = list(calls)
    results = []
    with _obs.span("map_grid", tasks=len(grid)):
        for index, kwargs in enumerate(grid):
            with _obs.span("task", index=index):
                results.append(func(**kwargs))
    return results


def map_variants(
    func: Callable,
    points: Iterable[Mapping[str, Any]],
    variants: Sequence[Mapping[str, Any]],
) -> list[tuple]:
    """``func(**point, **variant)`` for every point x variant, as one
    :func:`map_grid` call in point-major order: one tuple per point,
    holding its results in variant order."""
    results = map_grid(func, (
        {**point, **variant} for point in points for variant in variants))
    width = len(variants)
    return [tuple(results[i:i + width]) for i in range(0, len(results), width)]
