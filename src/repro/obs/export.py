"""Profile documents: JSON schema, Chrome traces, summaries, diffs.

The profile JSON schema (``PROFILE_SCHEMA_VERSION``, full field list in
DESIGN.md Sec. 9)::

    {
      "schema": 3,
      "figure": "fig14",
      "backend": "numpy",                    # active kernel backend
      "created_unix": 1754556000.0,          # wall-clock stamp
      "wall_s": 212.4,                       # the root span's duration
      "coverage": 0.998,                     # child-span wall coverage
      "span_tree": {
        "name": "figure/fig14", "tags": {...},
        "t0_s": 0.0, "wall_s": 212.4, "cpu_s": 210.9,
        "rss_peak_delta_kb": 5124,
        "children": [ ...same shape... ]
      },
      "counters":   {"accel.sims": 200, ...},
      "memory_caches": {"simulate": {hits,misses,size,maxsize}, ...},
      "kernel_accounting": {
        "sims": 200, "total_cycles": ..., "total_energy_j": ...,
        "kernels": {"ntt": {"cycles": ..., "share": ...}, ...},
        "energy":  {"crb": {"joules": ..., "share": ...}, ...}
      }
    }

Schema 2 dropped schema 1's count/sum/min/max summary of the ``task``
spans' own walls; distributions are read off the span tree by
:func:`span_quantiles`.  Schema 3 dropped the disk cache's ``cache``
section and its ``cache.*`` counters along with the cache.

Everything in this module is cold-path (runs once per figure), so it is
free to import json and build intermediate structures; the hot-path
recording lives in :mod:`repro.obs.core`.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ParameterError, json_field
from repro.obs.core import Span

PROFILE_SCHEMA_VERSION = 3

#: Counter-name prefixes the kernel-accounting section is derived from
#: (written by :func:`repro.eval.common.simulate` while profiling).
KERNEL_CYCLES_PREFIX = "accel.kernel.cycles."
KERNEL_ENERGY_PREFIX = "accel.kernel.energy_j."


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
def span_to_dict(span: Span, epoch: float) -> dict:
    """JSON-ready span tree with ``t0`` rebased to the profile epoch."""
    return {
        "name": span.name,
        "tags": dict(span.tags),
        "t0_s": max(0.0, span.t0 - epoch),
        "wall_s": span.wall_s,
        "cpu_s": span.cpu_s,
        "rss_peak_delta_kb": span.rss_peak_delta_kb,
        "children": [span_to_dict(c, epoch) for c in span.children],
    }


def coverage(tree: Mapping[str, Any]) -> float:
    """Fraction of a span's wall time covered by its direct children.

    Children of a serial run tile the parent, so the sum is the covered
    time; concurrent children (serve's asyncio tasks) can oversum, hence
    the cap at 1.  A leaf (no children) is fully covered by definition —
    there is nothing finer to attribute.
    """
    if not tree["children"]:
        return 1.0
    wall = tree["wall_s"]
    if wall <= 0.0:
        return 1.0
    return min(1.0, sum(c["wall_s"] for c in tree["children"]) / wall)


def _nearest_rank(ordered: list[float], pct: int) -> float:
    """The nearest-rank ``pct``-th percentile of an ascending list."""
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def span_quantiles(tree: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    """Per span name: call count and nearest-rank p50/p90/p99 wall seconds.

    Every span of the tree is one sample of its name, so a grid's
    ``task`` spans give the per-point latency distribution and a traced
    evaluator run gives one per op.
    """
    walls: dict[str, list[float]] = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        walls.setdefault(node["name"], []).append(node["wall_s"])
        stack.extend(node["children"])
    return {
        name: {"calls": len(walls[name]), **{
            f"p{pct}_s": _nearest_rank(sorted(walls[name]), pct)
            for pct in (50, 90, 99)
        }}
        for name in sorted(walls)
    }


def chrome_trace(tree: Mapping[str, Any], pid: int = 1) -> list[dict]:
    """Flatten a span tree to Chrome ``trace_event`` objects.

    Complete events (``ph: "X"``) with microsecond timestamps; load the
    resulting JSON array in ``chrome://tracing`` or Perfetto.  Sibling
    spans that overlap in time (concurrent serve requests) are fanned
    out to distinct ``tid`` lanes so the viewer does not nest them.
    """
    events: list[dict] = []

    def emit(node: Mapping[str, Any], tid: int) -> None:
        events.append(
            {
                "name": node["name"],
                "ph": "X",
                "ts": node["t0_s"] * 1e6,
                "dur": node["wall_s"] * 1e6,
                "pid": pid,
                "tid": tid,
                "args": dict(node["tags"]),
            }
        )
        lanes: list[float] = []  # per-lane last end time
        for child in node["children"]:
            start, end = child["t0_s"], child["t0_s"] + child["wall_s"]
            for lane, busy_until in enumerate(lanes):
                if start >= busy_until - 1e-12:
                    lanes[lane] = end
                    emit(child, tid + lane)
                    break
            else:
                lanes.append(end)
                emit(child, tid + len(lanes) - 1)

    emit(dict(tree), tid=1)
    return events


# ----------------------------------------------------------------------
# Profile documents
# ----------------------------------------------------------------------
def kernel_accounting(counters: Mapping[str, float]) -> dict | None:
    """Derive the per-kernel attribution tables from the counters.

    Returns ``None`` when no simulation contributed (figure served
    entirely from the in-process memory cache, or a CPU-model figure).
    Shares are normalized against the summed totals, so they add to
    1.0 within float error (``tests/test_obs.py::TestProfileCli``).
    """
    sims = counters.get("accel.sims", 0)
    if not sims:
        return None
    total_cycles = counters.get("accel.cycles", 0.0)
    total_energy = counters.get("accel.energy_j", 0.0)
    kernels = {
        name[len(KERNEL_CYCLES_PREFIX):]: value
        for name, value in counters.items()
        if name.startswith(KERNEL_CYCLES_PREFIX)
    }
    energy = {
        name[len(KERNEL_ENERGY_PREFIX):]: value
        for name, value in counters.items()
        if name.startswith(KERNEL_ENERGY_PREFIX)
    }
    return {
        "sims": int(sims),
        "total_cycles": total_cycles,
        "total_energy_j": total_energy,
        "kernels": {
            name: {
                "cycles": cycles,
                "share": cycles / total_cycles if total_cycles else 0.0,
            }
            for name, cycles in sorted(kernels.items())
        },
        "energy": {
            name: {
                "joules": joules,
                "share": joules / total_energy if total_energy else 0.0,
            }
            for name, joules in sorted(energy.items())
        },
    }


def build_profile(
    figure: str,
    root: Span,
    epoch: float,
    counters: Mapping[str, float],
    memory_caches: Mapping[str, Mapping[str, int]] | None = None,
) -> dict:
    """Assemble one figure's profile document (see the module docstring)."""
    import repro.backends as _backends

    tree = span_to_dict(root, epoch)
    return {
        "schema": PROFILE_SCHEMA_VERSION,
        "figure": figure,
        "backend": _backends.active_name(),
        "created_unix": time.time(),
        "wall_s": tree["wall_s"],
        "coverage": coverage(tree),
        "span_tree": tree,
        "counters": dict(sorted(counters.items())),
        "memory_caches": (
            {k: dict(v) for k, v in memory_caches.items()}
            if memory_caches is not None
            else None
        ),
        "kernel_accounting": kernel_accounting(counters),
    }


_NUMBER = (int, float)
#: Every span node's keys and the JSON types the renderers accept.
_SPAN_KEYS = {
    "name": (str,), "tags": (dict,), "t0_s": _NUMBER, "wall_s": _NUMBER,
    "cpu_s": _NUMBER, "rss_peak_delta_kb": _NUMBER, "children": (list,),
}
_field = functools.partial(json_field, "profile")


def _check_document(doc: dict) -> None:
    """The shape :func:`render_summary`, :func:`diff_profiles` and
    :func:`chrome_trace` read: top-level keys and every span node."""
    for key, types in (
        ("figure", (str,)), ("wall_s", _NUMBER), ("coverage", _NUMBER)
    ):
        _field(doc, key, types, "profile")
    for name in _field(doc, "counters", (dict,), "profile"):
        _field(doc["counters"], name, _NUMBER, "counters")
    accounting = doc.get("kernel_accounting")
    if accounting is not None:
        for key in ("sims", "total_cycles"):
            _field(accounting, key, _NUMBER, "kernel_accounting")
        kernels = _field(accounting, "kernels", (dict,), "kernel_accounting")
        for name, entry in kernels.items():
            for key in ("cycles", "share"):
                _field(entry, key, _NUMBER, f"kernel {name!r}")
    stack = [(doc.get("span_tree"), "span_tree")]
    while stack:
        node, where = stack.pop()
        for key, types in _SPAN_KEYS.items():
            _field(node, key, types, where)
        stack.extend((c, f"{where}/{i}") for i, c in enumerate(node["children"]))


def load_profile(path: str | Path) -> dict:
    """Read a profile document and check the shape its renderers read.

    Any mismatch — an unreadable file, another schema, a missing or
    mistyped key the renderers read, a malformed span node — is one
    :class:`~repro.errors.ParameterError` naming the path and the key.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read profile {path}: {exc}") from exc
    if not isinstance(doc, dict) or "span_tree" not in doc:
        raise ParameterError(f"{path} is not a profile document")
    if doc.get("schema") != PROFILE_SCHEMA_VERSION:
        raise ParameterError(
            f"{path} has profile schema {doc.get('schema')!r}; this build "
            f"reads schema {PROFILE_SCHEMA_VERSION}"
        )
    try:
        _check_document(doc)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    return doc


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _flatten(tree: Mapping[str, Any], prefix: str = "") -> list[tuple[str, dict]]:
    """``(path, span)`` rows in depth-first order, grid tasks collapsed."""
    path = f"{prefix}/{tree['name']}" if prefix else tree["name"]
    rows = [(path, dict(tree))]
    children = tree["children"]
    tasks = [c for c in children if c["name"] == "task"]
    for child in children:
        if child["name"] == "task":
            continue
        rows.extend(_flatten(child, path))
    if tasks:
        rows.append(
            (
                f"{path}/task (x{len(tasks)})",
                {
                    "wall_s": sum(t["wall_s"] for t in tasks),
                    "cpu_s": sum(t["cpu_s"] for t in tasks),
                    "rss_peak_delta_kb": max(
                        t["rss_peak_delta_kb"] for t in tasks
                    ),
                },
            )
        )
    return rows


def render_summary(doc: Mapping[str, Any]) -> str:
    """Human-readable profile summary: span table, span quantiles,
    kernel table."""
    # Imported lazily: obs stays importable without the eval stack.
    from repro.eval.common import format_table

    rows = []
    for path, node in _flatten(doc["span_tree"]):
        rows.append(
            [
                path,
                f"{node['wall_s']:.3f}",
                f"{node['cpu_s']:.3f}",
                f"{node['rss_peak_delta_kb'] / 1024.0:.1f}",
            ]
        )
    quantile_rows = [
        [name, str(q["calls"]),
         *(f"{q[f'p{pct}_s'] * 1e3:.3f}" for pct in (50, 90, 99))]
        for name, q in span_quantiles(doc["span_tree"]).items()
    ]
    blocks = [
        f"profile: {doc['figure']} — wall {doc['wall_s']:.2f}s, "
        f"span coverage {doc['coverage']:.1%}",
        format_table(["span", "wall [s]", "cpu [s]", "peak-rss Δ [MB]"], rows),
        "span quantiles:\n" + format_table(
            ["span name", "calls", "p50 [ms]", "p90 [ms]", "p99 [ms]"],
            quantile_rows,
        ),
    ]
    accounting = doc.get("kernel_accounting")
    if accounting:
        kernel_rows = [
            [name, f"{entry['cycles']:.3e}", f"{entry['share']:.1%}"]
            for name, entry in accounting["kernels"].items()
        ]
        blocks.append(
            f"kernel accounting ({accounting['sims']} sims, "
            f"{accounting['total_cycles']:.3e} cycles):\n"
            + format_table(["kernel", "cycles", "share"], kernel_rows)
        )
    return "\n".join(blocks)


# ----------------------------------------------------------------------
# Regression diffs (`bitpacker-repro obs-report`)
# ----------------------------------------------------------------------
def _span_walls(tree: Mapping[str, Any]) -> dict[str, float]:
    """Total wall seconds per flattened span path (task spans summed)."""
    walls: dict[str, float] = {}
    for path, node in _flatten(tree):
        walls[path] = walls.get(path, 0.0) + node["wall_s"]
    return walls


def diff_profiles(old: Mapping[str, Any], new: Mapping[str, Any]) -> str:
    """Rendered old-vs-new comparison for regression triage.

    Sections: per-span wall time (with ratio), counters (with delta),
    and kernel shares.  A ratio column of ``-`` means the span/counter
    exists on one side only.
    """
    from repro.eval.common import format_table

    old_walls = _span_walls(old["span_tree"])
    new_walls = _span_walls(new["span_tree"])
    span_rows = []
    for path in sorted(set(old_walls) | set(new_walls)):
        a, b = old_walls.get(path), new_walls.get(path)
        ratio = f"{b / a:.2f}x" if a and b else "-"
        span_rows.append(
            [
                path,
                "-" if a is None else f"{a:.3f}",
                "-" if b is None else f"{b:.3f}",
                ratio,
            ]
        )
    blocks = [
        f"profile diff: {old['figure']} "
        f"({old['wall_s']:.2f}s -> {new['wall_s']:.2f}s)",
        format_table(["span", "old [s]", "new [s]", "ratio"], span_rows),
    ]
    old_counters = old.get("counters", {})
    new_counters = new.get("counters", {})
    counter_rows = []
    for name in sorted(set(old_counters) | set(new_counters)):
        a = old_counters.get(name, 0)
        b = new_counters.get(name, 0)
        if a == b:
            continue
        counter_rows.append([name, f"{a:g}", f"{b:g}", f"{b - a:+g}"])
    if counter_rows:
        blocks.append(
            "counters (changed only):\n"
            + format_table(["counter", "old", "new", "delta"], counter_rows)
        )
    old_acc = old.get("kernel_accounting") or {"kernels": {}}
    new_acc = new.get("kernel_accounting") or {"kernels": {}}
    kernel_rows = []
    for name in sorted(set(old_acc["kernels"]) | set(new_acc["kernels"])):
        a = old_acc["kernels"].get(name, {}).get("share")
        b = new_acc["kernels"].get(name, {}).get("share")
        kernel_rows.append(
            [
                name,
                "-" if a is None else f"{a:.1%}",
                "-" if b is None else f"{b:.1%}",
            ]
        )
    if kernel_rows:
        blocks.append(
            "kernel shares:\n"
            + format_table(["kernel", "old", "new"], kernel_rows)
        )
    return "\n".join(blocks)
