"""Request coalescing: compatible ciphertext ops become one kernel call.

FHE accelerator throughput comes from keeping wide batched kernels
saturated, not from executing requests one at a time (Cheddar,
PAPERS.md).  The serve batcher exploits the same structure the PR-1
vectorization did: a pointwise ciphertext op over an RNS residue stack
is ``k`` independent rows against a ``(k, 1)`` modulus column, so *B*
requests that share a modulus chain and level are exactly one
``(B*k, n)`` matrix against the tiled column — a single kernel call
through :mod:`repro.backends` instead of *B*.

Compatibility is strict: requests coalesce iff they agree on the key
fingerprint (same chain primes), the level (same row count and moduli
prefix) and the op.  Mixed-level traffic **must not** coalesce — the
rows would reduce against the wrong moduli — and
:func:`coalesce` keys on exactly that triple.  Because every batched
kernel is elementwise over rows, a coalesced result is byte-identical
to the serial one; ``tests/test_serve.py`` pins that.

Executable ops map trace kinds onto the kernels a long-running service
can run statelessly per request:

- ``mul`` (``HMUL``/``PMUL``): the NTT-domain Hadamard product, through
  :func:`repro.backends.pointwise_mul`;
- ``add`` (``HADD``/``PADD``): elementwise modular addition via
  :func:`repro.nt.modmath.mod_add` (not one of the five kernels — a
  single fused numpy expression is already matrix-at-a-time).

``RESCALE``/``ADJUST``/``HROT`` remain schedule-only kinds: they are
verified by the admission gate but carry no per-request payload here,
and submitting one is a 400-class admission error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.backends as backends
import repro.nt.modmath as modmath
from repro.errors import ParameterError
from repro.serve.keys import KeyMaterial
from repro.trace.program import OpKind

#: Trace op kinds a request may execute, and the kernel each maps to.
EXECUTABLE_KINDS: dict[OpKind, str] = {
    OpKind.HMUL: "mul",
    OpKind.PMUL: "mul",
    OpKind.HADD: "add",
    OpKind.PADD: "add",
}

#: The ops :func:`execute_group` understands.
OPS = ("mul", "add")


@dataclass
class OpRequest:
    """One admitted ciphertext op: operands plus its batch identity.

    ``a``/``b`` are ``(level + 1, n)`` uint64 residue stacks, row ``i``
    reduced mod ``key.primes[i]``.  ``seq`` is the service's admission
    sequence number (response ordering / debugging); ``context`` is an
    opaque slot the service uses to carry its response future.

    ``deadline`` is an absolute ``time.monotonic()`` instant (``None``
    = no deadline) propagated from ``submit()`` through coalescing:
    batching and retries are latency decisions and must never execute
    work the submitter has already given up on.  ``poisoned`` marks a
    request the fault injector declared kernel-fatal
    (``serve.request:poison``); it rides the request so the
    split-and-retry path can be tested against a deterministic poison.
    """

    tenant: str
    key: KeyMaterial
    op: str
    level: int
    a: np.ndarray
    b: np.ndarray
    seq: int = 0
    deadline: float | None = None
    poisoned: bool = False
    context: Any = field(default=None, repr=False)

    def batch_key(self) -> tuple[str, int, str]:
        """Requests coalesce iff this triple matches exactly."""
        return (self.key.fingerprint, self.level, self.op)


def validate_operands(request: OpRequest) -> None:
    """Shape/dtype/op admission checks (raise :class:`ParameterError`)."""
    if request.op not in OPS:
        raise ParameterError(
            f"unknown serve op {request.op!r}; known: {', '.join(OPS)}"
        )
    rows = request.level + 1
    n = request.key.params.n
    for label, mat in (("a", request.a), ("b", request.b)):
        if not isinstance(mat, np.ndarray) or mat.dtype != np.uint64:
            raise ParameterError(
                f"operand {label} must be a uint64 ndarray, got "
                f"{getattr(mat, 'dtype', type(mat).__name__)}"
            )
        if mat.shape != (rows, n):
            raise ParameterError(
                f"operand {label} must have shape ({rows}, {n}) at level "
                f"{request.level}, got {mat.shape}"
            )


def coalesce(requests: list[OpRequest]) -> list[list[OpRequest]]:
    """Group a drained queue run into compatible batches.

    Grouping is stable: batches are ordered by the first appearance of
    their key, and requests keep their relative order inside a batch,
    so two runs over the same queue contents produce the same batches.
    """
    groups: dict[tuple, list[OpRequest]] = {}
    for request in requests:
        groups.setdefault(request.batch_key(), []).append(request)
    return list(groups.values())


def _kernel(op: str, a: np.ndarray, b: np.ndarray, q_col: np.ndarray,
            kind: str) -> np.ndarray:
    if op == "mul":
        return backends.pointwise_mul(a, b, q_col, kind)
    return modmath.mod_add(a, b, q_col)


def execute_serial(request: OpRequest) -> np.ndarray:
    """Reference path: one request, one kernel call.

    The byte-identity oracle for the batched path (and the executor for
    singleton groups — a batch of one *is* the serial call).
    """
    key = request.key
    return _kernel(
        request.op, request.a, request.b, key.q_col(request.level), key.kind
    )


def execute_group(group: list[OpRequest]) -> list[np.ndarray]:
    """Execute one coalesced batch as a single matrix-at-a-time call.

    Stacks the ``B`` member stacks into one ``(B*k, n)`` matrix, tiles
    the shared modulus column, dispatches once, and slices the result
    back per request.  Row-elementwise kernels make this bit-exact
    against :func:`execute_serial`.
    """
    if not group:
        return []
    if len(group) == 1:
        return [execute_serial(group[0])]
    first = group[0]
    key = first.key
    expected = first.batch_key()
    for request in group[1:]:
        if request.batch_key() != expected:
            raise ParameterError(
                f"incompatible batch: {request.batch_key()} vs {expected}"
            )
    rows = first.level + 1
    a = np.vstack([request.a for request in group])
    b = np.vstack([request.b for request in group])
    q_col = np.tile(key.q_col(first.level), (len(group), 1))
    out = _kernel(first.op, a, b, q_col, key.kind)
    return [out[i * rows:(i + 1) * rows] for i in range(len(group))]
