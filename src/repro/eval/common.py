"""Shared plumbing for the evaluation harnesses.

Caches the expensive artifacts (traces, planned chains, simulation
results) at two layers: an in-process ``lru_cache`` keyed by the full
parameterization, backed by the experiment runner's content-addressed
disk store (:mod:`repro.eval.runner`), so re-running one cheap figure
after an expensive one is instant *across* CLI invocations too.  A
cached record is keyed by its parameters plus a fingerprint of the
model's calibration constants, so editing a constant recomputes instead
of serving stale rows.

Failure model: these artifact functions are the grid points
:func:`repro.eval.runner.map_grid` evaluates, and a killed run resumes
by running again, so they must stay safe to *replay* — each is a pure
function of its parameters, and a record that went missing (interrupted
run, quarantined corruption) is simply recomputed on the next call.
Nothing here may cache partial state outside the runner's store
(DESIGN.md Sec. 8).
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
from repro.schemes import (
    chain_from_dict,
    chain_to_dict,
    plan_bitpacker_chain,
    plan_rns_ckks_chain,
)
from repro.schemes.chain import SCHEMES, ModulusChain  # SCHEMES: for the harnesses
from repro.trace.program import HeTrace
from repro.workloads.apps import BENCHMARKS
from repro.workloads.bootstrap_model import SCHEDULES

#: Benchmark x bootstrap pairs of Figs. 11-16 (10 workloads).
WORKLOAD_GRID = tuple(
    (app, bs) for bs in ("BS19", "BS26") for app in BENCHMARKS
)
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


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def trace_for(
    app: str,
    bs: str,
    scheme: str,
    word_bits: int,
    n: int = EVAL_N,
    max_log_q: float = EVAL_MAX_LOG_Q,
    ks_digits: int = 3,
    compiled: bool = False,
) -> HeTrace:
    """The app's trace under a scheme's bootstrap cadence (Sec. 5).

    With ``compiled=True`` the recorded trace is run through
    :func:`repro.trace.compiler.compile_trace` first.  ``compiled`` is
    part of the cache key (only when set, so existing disk records stay
    addressable): a compiled artifact can never be served where the
    recorded schedule was asked for, or vice versa.
    """
    params = {
        "app": app, "bs": bs, "scheme": scheme, "word_bits": word_bits,
        "n": n, "max_log_q": max_log_q, "ks_digits": ks_digits,
    }
    if compiled:
        params["compiled"] = True

    def _compute() -> HeTrace:
        trace = BENCHMARKS[app](
            SCHEDULES[bs], n=n, max_log_q=max_log_q, scheme=scheme,
            word_bits=word_bits, ks_digits=ks_digits,
        )
        if compiled:
            from repro.trace.compiler import compile_trace

            trace = compile_trace(
                trace, scheme=scheme, word_bits=word_bits,
                ks_digits=ks_digits, plan=False,
            ).trace
        return trace

    return runner.cached(
        "trace", params,
        compute=_compute,
        encode=HeTrace.to_dict,
        decode=HeTrace.from_dict,
    )


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def chain_for(
    app: str,
    bs: str,
    scheme: str,
    word_bits: int,
    ks_digits: int = 3,
    n: int = EVAL_N,
    max_log_q: float = EVAL_MAX_LOG_Q,
    compiled: bool = False,
) -> ModulusChain:
    params = {
        "app": app, "bs": bs, "scheme": scheme, "word_bits": word_bits,
        "n": n, "max_log_q": max_log_q, "ks_digits": ks_digits,
    }
    if compiled:
        params["compiled"] = True
    return runner.cached(
        "chain", params,
        compute=lambda: _plan_chain(
            app, bs, scheme, word_bits, ks_digits, n, max_log_q, compiled
        ),
        encode=chain_to_dict,
        decode=chain_from_dict,
    )


def _plan_chain(
    app: str, bs: str, scheme: str, word_bits: int, ks_digits: int,
    n: int, max_log_q: float, compiled: bool = False,
) -> ModulusChain:
    trace = trace_for(
        app, bs, scheme, word_bits, n, max_log_q, ks_digits, compiled
    )
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
    n: int = EVAL_N,
    max_log_q: float = EVAL_MAX_LOG_Q,
    compiled: bool = False,
) -> SimResult:
    """Run one (workload, scheme, machine) point on the accelerator model."""
    params = {
        "app": app, "bs": bs, "scheme": scheme, "word_bits": word_bits,
        "register_file_mb": register_file_mb, "crb_shrink": crb_shrink,
        "ks_digits": ks_digits, "n": n, "max_log_q": max_log_q,
    }
    if compiled:
        params["compiled"] = True
    result = runner.cached(
        "simulate", params,
        compute=lambda: _simulate(
            app, bs, scheme, word_bits, register_file_mb, crb_shrink,
            ks_digits, n, max_log_q, compiled,
        ),
        encode=SimResult.to_dict,
        decode=SimResult.from_dict,
    )
    # Recorded outside runner.cached so disk hits contribute to the
    # kernel-accounting table too; the lru_cache above means one record
    # per unique point (the profiling CLI clears memory caches per
    # figure so repeat figures account their own points).
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
    crb_shrink: float, ks_digits: int, n: int, max_log_q: float,
    compiled: bool = False,
) -> SimResult:
    config = craterlake().with_word_size(word_bits)
    if register_file_mb != 256.0:
        config = config.with_register_file(register_file_mb)
    if crb_shrink:
        config = config.with_crb_shrink(crb_shrink)
    sim = AcceleratorSim(config)
    trace = trace_for(
        app, bs, scheme, word_bits, n, max_log_q, ks_digits, compiled
    )
    chain = chain_for(
        app, bs, scheme, word_bits, ks_digits, n, max_log_q, compiled
    )
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
    compiled: bool = False,
) -> CpuResult:
    """Run one workload point on the CPU cost model (Fig. 13)."""
    params = {
        "app": app, "bs": bs, "scheme": scheme, "word_bits": word_bits,
        "ks_digits": ks_digits,
    }
    if compiled:
        params["compiled"] = True
    return runner.cached(
        "simulate-cpu", params,
        compute=lambda: _simulate_cpu(
            app, bs, scheme, word_bits, ks_digits, compiled
        ),
        encode=CpuResult.to_dict,
        decode=CpuResult.from_dict,
    )


def _simulate_cpu(
    app: str, bs: str, scheme: str, word_bits: int, ks_digits: int,
    compiled: bool = False,
) -> CpuResult:
    # Positional, like _simulate and _plan_chain: lru_cache keys a keyword
    # call apart from a positional one, and the trace would be built twice.
    n, max_log_q = EVAL_N, EVAL_MAX_LOG_Q
    trace = trace_for(
        app, bs, scheme, word_bits, n, max_log_q, ks_digits, compiled
    )
    GATE.admit(trace, verify_or_raise)
    return DEFAULT_CPU_MODEL.run(
        trace,
        chain_for(app, bs, scheme, word_bits, ks_digits, n, max_log_q, compiled),
    )


#: The in-process cache layer, by artifact kind (the profile exporter's
#: ``memory_caches`` section iterates this).
_MEMORY_CACHES = {
    "trace": trace_for,
    "chain": chain_for,
    "plan": _planned_chain,
    "simulate": simulate,
    "simulate-cpu": simulate_cpu,
}


def clear_memory_caches() -> None:
    """Drop the in-process layer only; disk records stay valid.

    Models a fresh CLI invocation: the next call of each artifact
    function must go through the runner's disk store again.  The CLI
    calls this on ``--force`` (so one process cannot keep serving the
    pre-force artifacts it already holds in memory) and per figure when
    profiling.
    """
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
class ComparisonRow:
    """One workload's BitPacker-vs-RNS-CKKS comparison."""

    app: str
    bs: str
    bitpacker: float
    rns_ckks: float

    @property
    def label(self) -> str:
        return f"{self.app} ({self.bs})"

    @property
    def ratio(self) -> float:
        """RNS-CKKS relative to BitPacker (the paper's normalization)."""
        return self.rns_ckks / self.bitpacker


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
