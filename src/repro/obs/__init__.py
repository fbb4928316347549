"""``repro.obs`` — the instrumentation seam and what it records
(DESIGN.md Sec. 9).

:mod:`repro.obs.core` holds the hot boundaries' one switch and entry
points; the recorder and the runtime sanitizer listen behind it.  The
recorder keeps **spans** (:func:`span`: wall/CPU/peak-RSS regions,
exportable as profile JSON and Chrome ``trace_event``, with per-name
p50/p90/p99 from :func:`span_quantiles`) and **counters**
(:func:`count`: cache hits/misses, kernel and evaluator-op counts, the
per-kernel cycle/energy attribution behind ``kernel_accounting``).
Drive it via ``repro figure <name> --profile``, or::

    from repro import obs

    obs.enable()
    with obs.span("experiment", app="lola"):
        ...
    [root] = obs.take_roots()
    doc = obs.build_profile("experiment", root, obs.epoch(), obs.counters())

This ``__init__`` stays light (no numpy, no eval stack): the hot-path
modules import :mod:`repro.obs.core` through it.
"""

from repro.obs import core
from repro.obs.core import (
    Span,
    count,
    counters,
    current_span,
    disable,
    enable,
    enabled,
    epoch,
    reset,
    span,
    take_roots,
)
from repro.obs.export import (
    PROFILE_SCHEMA_VERSION,
    build_profile,
    chrome_trace,
    coverage,
    diff_profiles,
    kernel_accounting,
    load_profile,
    render_summary,
    span_quantiles,
    span_to_dict,
    write_profile,
)

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "Span",
    "build_profile",
    "chrome_trace",
    "core",
    "count",
    "counters",
    "coverage",
    "current_span",
    "diff_profiles",
    "disable",
    "enable",
    "enabled",
    "epoch",
    "kernel_accounting",
    "load_profile",
    "render_summary",
    "reset",
    "span",
    "span_quantiles",
    "span_to_dict",
    "take_roots",
    "write_profile",
]
