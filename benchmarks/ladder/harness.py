"""Shared plumbing: the contract file, timing helpers, the result record.

Pure standard library, so the ``compare``/``repeat`` commands can import
it without pulling numpy in before the thread pins are set.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

#: Repo root (this file is ``<root>/benchmarks/ladder/harness.py``).
ROOT = Path(__file__).resolve().parents[2]
CONTRACT_PATH = ROOT / "BENCHMARK.json"

#: Every load-bearing thread pool is pinned to one thread: the ladder
#: measures one process on one OS thread (README "Method").
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)

#: Result-document schema version.
SCHEMA = 1

#: Rungs are the median of this many calls (after two warm-up calls).
RUNG_CALLS = 20


def pin_threads() -> None:
    """Pin BLAS/OMP/numba pools to one thread.  Call before numpy loads."""
    for var in THREAD_ENV:
        os.environ[var] = "1"


def load_contract() -> dict:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    with open(CONTRACT_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile that still has ten samples beyond it.

    ``None`` below twenty samples, where no tail is worth the name.
    """
    count = len(values)
    if count < 20:
        return None
    pct = 100.0 * (1.0 - 10.0 / count)
    return pct, percentile(values, pct)


def spread(values: Sequence[float]) -> float | None:
    """Run-to-run spread as a share of the median.

    Interquartile distance (``statistics.quantiles(n=4)``, the driver's
    rule) from four values up; full range for two or three; ``None``
    for a single value, where there is no spread to speak of.
    """
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if mid == 0:
        return None
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return abs(q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Process high-water RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_repro_caches() -> None:
    """Empty every ``functools`` cache on a loaded ``repro`` module.

    Set-up is timed several times in one process; without this the
    second and third repeat would find prime tables, NTT contexts and
    encoders memoized and the median would hide any work a change moved
    into a cached set-up step.  Walking ``sys.modules`` (rather than
    naming caches) keeps a cache added by a later change covered.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr in list(vars(module).values()):
            clear = getattr(attr, "cache_clear", None)
            if callable(clear) and getattr(attr, "__module__", None) == name:
                clear()


def time_calls(fn: Callable[[], Any], calls: int = RUNG_CALLS) -> float:
    """Median wall seconds of ``calls`` calls, after two warm-up calls."""
    fn()
    fn()
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def enumerate_primes_s(word_bits: int, n: int) -> float:
    """The ``nt.primes.enumerate_s`` rung: one cold enumeration.

    Seconds-scale at small ``n`` (the planner's dominant cost), so it is
    timed once, not twenty times.
    """
    from repro.nt.primes import all_ntt_friendly_primes

    all_ntt_friendly_primes.cache_clear()
    t0 = time.perf_counter()
    all_ntt_friendly_primes(word_bits, n)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Check:
    """One correctness check: a failed one fails the whole command."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``bench.py``.

    ``end_to_end`` comes from the untraced timed part, ``per_layer`` from
    the traced part and the rungs (empty on an untraced run).
    ``attempted``/``failed`` count operations (iterations, model points,
    requests) plus one per correctness check.
    """

    workload: str
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    #: Ungated extras worth printing (tail percentile, digests, ...).
    notes: dict[str, Any] = field(default_factory=dict)
    #: Chrome ``trace_event`` objects of the traced part.
    trace_events: list[dict] = field(default_factory=list)
    #: ``SpeedProbe.speed`` of this run (see :mod:`benchmarks.ladder.probe`).
    machine_speed: float = 1.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0  # a failed check counts as a failure too


def table(rows: Sequence[Sequence[Any]]) -> str:
    """Left-aligned fixed-width text table; the first row is the header."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        for row in cells
    )


def latency_metrics(latencies_s: Sequence[float]) -> dict[str, float]:
    """``p50_ms``/``p90_ms`` of one latency sample set."""
    return {
        "p50_ms": percentile(latencies_s, 50) * 1e3,
        "p90_ms": percentile(latencies_s, 90) * 1e3,
    }
