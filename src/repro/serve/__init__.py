"""``repro.serve`` — the async multi-tenant encrypted-compute service.

The long-running composition of the repo's batch pieces (DESIGN.md
Sec. 12): per-tenant sessions over a shared key registry
(:mod:`repro.serve.keys`), admission through the static schedule
verifier, bounded per-shard queues with 429-style backpressure, a
batcher that coalesces compatible ciphertext ops into matrix-at-a-time
kernel calls (:mod:`repro.serve.batch`), and per-tenant
metrics via :mod:`repro.obs`.  :mod:`repro.serve.loadgen` ships the
seeded Zipf/bursty traffic model; ``bitpacker-serve``
(:mod:`repro.serve.cli`) boots the whole stack from the command line.
"""

from repro.serve.batch import (
    EXECUTABLE_KINDS,
    OpRequest,
    coalesce,
    execute_group,
    execute_serial,
)
from repro.serve.keys import KeyMaterial, KeyParams, KeyRegistry
from repro.serve.loadgen import (
    LoadReport,
    LoadSpec,
    build_schedule,
    run_load,
    run_scenario,
)
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
    "LoadReport",
    "LoadSpec",
    "OpRequest",
    "ServeResponse",
    "TenantSession",
    "build_schedule",
    "coalesce",
    "execute_group",
    "execute_serial",
    "run_load",
    "run_scenario",
]
