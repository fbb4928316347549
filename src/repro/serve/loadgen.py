"""Tenant registration for load runs against :class:`BitPackerServe`.

A :class:`LoadSpec` names how many tenants a run registers, the ring
degree and word size of their keys, and the (app, bootstrap) workloads
they cycle through; :func:`register_tenants` creates one verified
session per tenant under :func:`tenant_name`.  The traffic itself —
who submits what, when, and the byte-for-byte check of every answer
against :func:`repro.serve.batch.execute_serial` — belongs to the
caller (``benchmarks/ladder/serve.py``, ``tests/test_serve.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.service import DEFAULT_N, DEFAULT_WORD_BITS, BitPackerServe

#: (app, bootstrap) pairs cycled across tenants; mixing schedules gives
#: the batcher mixed-level traffic it must keep separate.
DEFAULT_WORKLOADS = (
    ("LogReg", "BS19"),
    ("RNN", "BS19"),
    ("LogReg", "BS26"),
    ("SqueezeNet", "BS19"),
)


@dataclass(frozen=True)
class LoadSpec:
    """The tenants one load run registers."""

    tenants: int = 6
    n: int = DEFAULT_N
    word_bits: int = DEFAULT_WORD_BITS
    workloads: tuple[tuple[str, str], ...] = DEFAULT_WORKLOADS


def tenant_name(rank: int) -> str:
    return f"tenant-{rank:04d}"


def tenant_workload(spec: LoadSpec, rank: int) -> tuple[str, str]:
    return spec.workloads[rank % len(spec.workloads)]


def register_tenants(service: BitPackerServe, spec: LoadSpec) -> None:
    """Create one session per simulated tenant (idempotent-free: call once)."""
    for rank in range(spec.tenants):
        app, bs = tenant_workload(spec, rank)
        service.register(
            tenant_name(rank), app=app, bs=bs,
            n=spec.n, word_bits=spec.word_bits,
        )
