"""``repro.serve`` — the async multi-tenant encrypted-compute service.

The long-running composition of the repo's batch pieces (DESIGN.md
Sec. 12): per-tenant sessions over a shared key registry
(:mod:`repro.serve.keys`), admission through the static schedule
verifier, bounded per-shard queues with 429-style backpressure, a
batcher that groups compatible ciphertext ops (one check, one span and
one settlement pass per group, one kernel call per member:
:mod:`repro.serve.batch`), and always-on books plus :mod:`repro.obs`
spans.  :mod:`repro.serve.loadgen` registers a run's
tenants.  There is no command-line entry point: the service is driven
from Python (``benchmarks/ladder/serve.py``, ``tests/test_serve.py``).
"""

from repro.serve.batch import (
    EXECUTABLE_KINDS,
    OpRequest,
    coalesce,
    execute_group,
    execute_serial,
)
from repro.serve.keys import KeyMaterial, KeyParams, KeyRegistry
from repro.serve.loadgen import LoadSpec
from repro.serve.service import (
    BitPackerServe,
    ServeResponse,
    TenantSession,
)

__all__ = [
    "EXECUTABLE_KINDS",
    "BitPackerServe",
    "KeyMaterial",
    "KeyParams",
    "KeyRegistry",
    "LoadSpec",
    "OpRequest",
    "ServeResponse",
    "TenantSession",
    "coalesce",
    "execute_group",
    "execute_serial",
]
