"""Homomorphic-operation traces.

Workloads are recorded once as a stream of ``(op, level)`` events and
replayed against either the functional CKKS engine (small ``n``,
correctness and precision) or the accelerator/CPU cost models (``n =
2^16``, performance and energy) — the two uses the paper makes of each
benchmark.
"""

from repro.trace.program import (
    TRACE_SCHEMA_VERSION,
    HeTrace,
    OpKind,
    TraceBuilder,
    TraceOp,
    content_digest,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "HeTrace",
    "OpKind",
    "TraceOp",
    "TraceBuilder",
    "TraceExecutor",
    "content_digest",
    "CompiledTrace",
    "compile_trace",
    "compile_workloads",
]

_COMPILER_NAMES = frozenset(
    {"CompiledTrace", "PassResult", "compile_trace", "compile_workloads",
     "render_report"}
)


def __getattr__(name: str):
    # The executor drags in the full CKKS stack (which itself imports
    # repro.analysis for the sanitizer), so it is resolved lazily to
    # keep ``repro.trace`` importable from anywhere in that stack.
    # Likewise the compiler, which sits on repro.analysis.absint.
    if name == "TraceExecutor":
        from repro.trace.execute import TraceExecutor

        return TraceExecutor
    if name in _COMPILER_NAMES:
        from repro.trace import compiler

        return getattr(compiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
