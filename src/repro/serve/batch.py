"""Request coalescing: compatible ciphertext ops become one dispatch.

A worker drains its queue and groups what it drained by batch key.
Compatibility is strict: requests coalesce iff they agree on the key
fingerprint (same chain primes), the level (same row count and moduli
prefix) and the op, and :func:`coalesce` keys on exactly that triple.
Mixed-level traffic **must not** coalesce: the rows would reduce
against the wrong moduli.

A group is one compatibility check, one ``serve/batch`` span and one
settlement pass in the service, and one kernel call per member
(:func:`execute_group`).  The members' operands are never stacked into
one ``(B*k, n)`` matrix: the kernels are elementwise, so stacking buys
nothing but the copy, and at the ladder's ``(27, 8192)`` operands the
copy cost more than the per-call overhead it saved: a group of 8 ran at
1,957 µs per request stacked and 1,374 per member.  One serial call now
takes about 670 µs and a group of 8 about 720 per member (``serve_hot``'s
traced rungs, 2-core Xeon).  Every result is :func:`execute_serial`'s,
byte for byte, and owns its array; ``tests/test_serve.py`` pins both.

Executable ops map trace kinds onto the kernels a long-running service
can run statelessly per request:

- ``mul`` (``HMUL``/``PMUL``): the NTT-domain Hadamard product, through
  :func:`repro.backends.pointwise_mul`;
- ``add`` (``HADD``/``PADD``): elementwise modular addition via
  :func:`repro.nt.modmath.mod_add` (not one of the five kernels: one
  sum and one in-place ``min`` over the whole residue stack).

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
    reduced mod ``key.primes[i]``.  ``context`` is an opaque slot the
    service uses to carry its response future.
    """

    tenant: str
    key: KeyMaterial
    op: str
    level: int
    a: np.ndarray
    b: np.ndarray
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
    """One request, one kernel call: the byte-identity oracle, and the
    call :func:`execute_group` makes for every member."""
    key = request.key
    return _kernel(
        request.op, request.a, request.b, key.q_col(request.level), key.kind
    )


def execute_group(group: list[OpRequest]) -> list[np.ndarray]:
    """Execute one coalesced group: check it, then run each member.

    Refuses a group whose members disagree on the batch key, then makes
    one :func:`execute_serial` call per member, in order.  No operand is
    copied into a stack, and each result is a fresh array of its own.
    """
    if group:
        expected = group[0].batch_key()
        for request in group[1:]:
            if request.batch_key() != expected:
                raise ParameterError(
                    f"incompatible batch: {request.batch_key()} vs {expected}"
                )
    return [execute_serial(request) for request in group]
