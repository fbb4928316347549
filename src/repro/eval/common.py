"""Shared plumbing for the evaluation harnesses.

Memoizes the expensive artifacts (traces, planned chains, simulation
results) in process, each in an ``lru_cache`` keyed on what computing it
reads: a walk on ``(app, bootstrap, application levels)``, a plan on the
planners' constraints, a simulation on its full point.  So a figure
that re-reads another's points in the same process (Figs. 15/16 after
Fig. 14) computes nothing, and points that differ only in what an
artifact does not read share it.  Nothing is kept between processes:
every artifact is a pure function of its parameters and is recomputed
by the next invocation (DESIGN.md Sec. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from repro.accel.config import craterlake
from repro.accel.sim import AcceleratorSim, SimResult
from repro.analysis.absint import GATE, verify_or_raise
from repro.cpu.model import DEFAULT_CPU_MODEL, CpuResult
from repro.errors import ParameterError
from repro.eval import runner
from repro.obs import core as _obs
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from repro.schemes.chain import SCHEMES, ModulusChain  # SCHEMES: for the harnesses
from repro.schemes.selection import min_prime_bits, word_primes
from repro.trace.program import HeTrace
from repro.workloads.apps import BENCHMARKS, levels_for, walk
from repro.workloads.bootstrap_model import SCHEDULES

#: Benchmark x bootstrap pairs of Figs. 11-16 (10 workloads).
WORKLOAD_GRID = tuple(
    (app, bs) for bs in ("BS19", "BS26") for app in BENCHMARKS
)
#: The same ten workloads as :func:`repro.eval.runner.map_variants` points.
WORKLOAD_POINTS = tuple(dict(app=app, bs=bs) for app, bs in WORKLOAD_GRID)
#: Paper parameters (Sec. 5).
EVAL_N = 65536
EVAL_MAX_LOG_Q = 1596.0


def gmean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    if not vals:
        raise ParameterError("gmean of empty sequence")
    for v in vals:
        if math.isnan(v) or v <= 0.0:
            raise ParameterError(
                f"gmean requires strictly positive values, got {v!r}"
            )
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


#: Memory-cache bounds.  The figure grids reuse a small working set (10
#: workloads x 2 schemes x a handful of machine/word variants), so these
#: comfortably hold a full multi-figure run while bounding a long-lived
#: process: an unbounded ``lru_cache`` on 65536-coefficient traces grows
#: without limit across sweeps.  Sized by payload weight — chains are
#: tiny (many machine variants share one), traces/results are the heavy
#: artifacts.
TRACE_CACHE_SIZE = 256
CHAIN_CACHE_SIZE = 512
SIM_CACHE_SIZE = 1024
CPU_CACHE_SIZE = 256


def trace_for(
    app: str,
    bs: str,
    scheme: str,
    word_bits: int,
    ks_digits: int = 3,
    max_log_q: float = EVAL_MAX_LOG_Q,
) -> HeTrace:
    """The app's trace under a scheme's bootstrap cadence (Sec. 5).

    The scheme, word, digits and budget set only the cadence (the
    application levels between bootstraps), so every point with the same
    cadence gets the same shared, immutable trace.
    """
    levels = levels_for(
        app, SCHEDULES[bs], EVAL_N, max_log_q, scheme, word_bits, ks_digits)
    return _walked_trace(app, bs, levels)


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def _walked_trace(app: str, bs: str, app_levels: int) -> HeTrace:
    """One walk per distinct schedule: the Fig. 11/13 grid's 42 points
    walk 14 traces, and each pays once for its digest, op table and gate
    check."""
    return walk(app, SCHEDULES[bs], app_levels, EVAL_N)


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def chain_for(
    app: str,
    bs: str,
    scheme: str,
    word_bits: int,
    ks_digits: int = 3,
    max_log_q: float = EVAL_MAX_LOG_Q,
) -> ModulusChain:
    """The workload's chain, planned from its trace's constraints."""
    trace = trace_for(app, bs, scheme, word_bits, ks_digits, max_log_q)
    return _planned_chain(
        scheme, trace.n, word_bits, trace.level_scale_bits, trace.base_bits,
        ks_digits,
    )


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _planned_chain(
    scheme: str, n: int, word_bits: int,
    level_scale_bits: tuple[float, ...], base_bits: float, ks_digits: int,
) -> ModulusChain:
    """One plan per distinct constraint set: the key is exactly what the
    planners read, and workloads sharing a bootstrap share constraints."""
    if scheme == "bitpacker":
        return plan_bitpacker_chain(
            n=n,
            word_bits=word_bits,
            level_scale_bits=level_scale_bits,
            base_bits=base_bits,
            ks_digits=ks_digits,
        )
    # snap_scales models the scale-correction constants real programs
    # fold into plaintext multiplies when a target scale is unreachable;
    # these chains feed the performance models only (see the planner doc).
    return plan_rns_ckks_chain(
        n=n,
        word_bits=word_bits,
        level_scale_bits=level_scale_bits,
        base_bits=base_bits,
        ks_digits=ks_digits,
        snap_scales=True,
    )


@lru_cache(maxsize=SIM_CACHE_SIZE)
def simulate(
    app: str,
    bs: str,
    scheme: str,
    word_bits: int = 28,
    register_file_mb: float = 256.0,
    crb_shrink: float = 0.0,
    ks_digits: int = 3,
    max_log_q: float = EVAL_MAX_LOG_Q,
) -> SimResult:
    """Run one (workload, scheme, machine) point on the accelerator model."""
    result = _simulate(
        app, bs, scheme, word_bits, register_file_mb, crb_shrink, ks_digits,
        max_log_q,
    )
    # The lru_cache above means one record per unique point (the
    # profiling CLI clears memory caches per figure so repeat figures
    # account their own points).
    _record_sim(result)
    return result


def _record_sim(result: SimResult) -> None:
    """Fold one simulation outcome into the profile's kernel accounting.

    The per-kernel counters regroup the same additions ``SimResult``
    makes, so ``sum(accel.kernel.cycles.*) == accel.cycles`` to float
    reordering error — the invariant the profile exporter cross-checks
    against Figs. 10/12.
    """
    _obs.count("accel.sims")
    _obs.count("accel.cycles", result.cycles)
    _obs.count("accel.energy_j", result.energy_j)
    for kernel, cycles in result.kernel_cycles.items():
        _obs.count(f"accel.kernel.cycles.{kernel}", cycles)
    for component, joules in result.energy_by_component.items():
        _obs.count(f"accel.kernel.energy_j.{component}", joules)


def _simulate(
    app: str, bs: str, scheme: str, word_bits: int, register_file_mb: float,
    crb_shrink: float, ks_digits: int, max_log_q: float,
) -> SimResult:
    config = craterlake().with_word_size(word_bits)
    if register_file_mb != 256.0:
        config = config.with_register_file(register_file_mb)
    if crb_shrink:
        config = config.with_crb_shrink(crb_shrink)
    sim = AcceleratorSim(config)
    trace = trace_for(app, bs, scheme, word_bits, ks_digits, max_log_q)
    chain = chain_for(app, bs, scheme, word_bits, ks_digits, max_log_q)
    # The pre-flight gate: no trace is priced before it verifies.
    GATE.admit(trace, verify_or_raise)
    return sim.run(trace, chain)


@lru_cache(maxsize=CPU_CACHE_SIZE)
def simulate_cpu(
    app: str,
    bs: str,
    scheme: str,
    word_bits: int = 64,
    ks_digits: int = 3,
) -> CpuResult:
    """Run one workload point on the CPU cost model (Fig. 13)."""
    # Positional, like _simulate: lru_cache keys a keyword call apart
    # from a positional one, and chain_for would miss.
    trace = trace_for(app, bs, scheme, word_bits, ks_digits, EVAL_MAX_LOG_Q)
    GATE.admit(trace, verify_or_raise)
    return DEFAULT_CPU_MODEL.run(
        trace, chain_for(app, bs, scheme, word_bits, ks_digits, EVAL_MAX_LOG_Q)
    )


#: The memos by artifact kind (the profile exporter's ``memory_caches``
#: section iterates this).
_MEMORY_CACHES = {
    "trace": _walked_trace,
    "chain": chain_for,
    "plan": _planned_chain,
    "word-primes": word_primes,
    "min-prime-bits": min_prime_bits,
    "simulate": simulate,
    "simulate-cpu": simulate_cpu,
}


def clear_memory_caches() -> None:
    """Empty every memo: the next call of each artifact function
    recomputes, as in a fresh process.  The CLI calls this per figure
    when profiling, so each profile accounts its own points."""
    for func in _MEMORY_CACHES.values():
        func.cache_clear()


def memory_cache_stats() -> dict[str, dict[str, int]]:
    """``lru_cache`` statistics per artifact kind (profile export)."""
    stats = {}
    for kind, func in _MEMORY_CACHES.items():
        info = func.cache_info()
        stats[kind] = {
            "hits": info.hits,
            "misses": info.misses,
            "maxsize": info.maxsize,
            "currsize": info.currsize,
        }
    return stats


@dataclass(frozen=True)
class WorkloadRow:
    """A harness row about one workload (app x bootstrap)."""

    app: str
    bs: str

    @property
    def label(self) -> str:
        return f"{self.app} ({self.bs})"


@dataclass(frozen=True)
class ComparisonRow(WorkloadRow):
    """One workload's BitPacker-vs-RNS-CKKS comparison."""

    bitpacker: float
    rns_ckks: float

    @property
    def ratio(self) -> float:
        """RNS-CKKS relative to BitPacker (the paper's normalization)."""
        return self.rns_ckks / self.bitpacker


def time_comparison(func, **fixed) -> list[ComparisonRow]:
    """Each workload's BitPacker and RNS-CKKS time under one cost model
    (``simulate`` or ``simulate_cpu``, called with ``fixed``)."""
    results = runner.map_variants(
        func, WORKLOAD_POINTS, [dict(scheme=s, **fixed) for s in SCHEMES])
    return [
        ComparisonRow(app=app, bs=bs, bitpacker=bp.time_s, rns_ckks=rns.time_s)
        for (app, bs), (bp, rns) in zip(WORKLOAD_GRID, results)
    ]


def format_table(
    header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width text table for harness output."""
    cells = [[str(c) for c in row] for row in rows]
    for index, row in enumerate(cells):
        if len(row) != len(header):
            raise ParameterError(
                f"format_table row {index} has {len(row)} cells, header "
                f"has {len(header)}"
            )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
