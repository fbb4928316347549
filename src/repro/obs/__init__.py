"""``repro.obs`` — zero-cost-when-off observability (DESIGN.md Sec. 9).

Three layers, mirroring the accounting GPU FHE stacks lean on to find
their hot paths:

- **Spans** (:func:`span`): hierarchical wall/CPU/peak-RSS timing
  regions, exportable as profile JSON and Chrome ``trace_event``.
- **Metrics** (:func:`count` / :func:`observe`): named counters and
  scalar distributions — cache hits/misses, runner recovery events,
  NTT/base-convert/rescale invocation counts and element volumes.
- **Kernel accounting**: per-kernel cycle/energy attribution carried by
  every :class:`~repro.accel.sim.SimResult` and aggregated into the
  profile's ``kernel_accounting`` table.

Activation follows the sanitizer/fault-injector pattern: hot hook sites
guard with ``if core.ACTIVE:`` (one attribute read when off).  Drive it
via ``repro figure <name> --profile`` / ``repro profile <name>``, or
programmatically::

    from repro import obs

    obs.enable()
    with obs.span("experiment", app="lola"):
        ...
    [root] = obs.take_roots()
    doc = obs.build_profile("experiment", root, obs.epoch(),
                            obs.counters(), obs.histograms())

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
    histograms,
    observe,
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
    normalized,
    render_summary,
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
    "histograms",
    "kernel_accounting",
    "load_profile",
    "normalized",
    "observe",
    "render_summary",
    "reset",
    "span",
    "span_to_dict",
    "take_roots",
    "write_profile",
]
