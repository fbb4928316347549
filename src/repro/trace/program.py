"""Trace IR: the operation stream the performance models consume.

A trace is scheme-agnostic: it records *what* the program does (operation
kind, level, multiplicity) together with the program constraints of
Fig. 8 (per-level target scales, base modulus width).  Each scheme's
planner turns those constraints into a modulus chain; the simulator then
prices every trace op through that chain's per-level residue counts.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.errors import ParameterError

#: Serialized-trace schema version.  Readers accept any version up to and
#: including this one (older encodings omitted the field entirely, which
#: decodes as version 1); a *newer* version is a clean
#: :class:`~repro.errors.ParameterError`, never a traceback.
TRACE_SCHEMA_VERSION = 1


class OpKind(enum.Enum):
    """Primitive homomorphic operations (paper Sec. 2.2)."""

    HMUL = "hmul"  # ciphertext x ciphertext (with relinearization)
    HROT = "hrot"  # homomorphic rotation (with keyswitch)
    HADD = "hadd"  # ciphertext + ciphertext
    PMUL = "pmul"  # ciphertext x plaintext
    PADD = "padd"  # ciphertext + plaintext
    RESCALE = "rescale"  # level L -> L-1
    ADJUST = "adjust"  # level L -> dst with scale correction


#: Kinds counted as level management in Fig. 12's breakdown.
LEVEL_MANAGEMENT_KINDS = frozenset({OpKind.RESCALE, OpKind.ADJUST})


@dataclass(frozen=True)
class TraceOp:
    """``count`` occurrences of one op at one level.

    ``scale_bits`` optionally records the log2 scale the program expects
    its operands to carry at this op; when present, the schedule verifier
    (:mod:`repro.analysis.absint`) cross-checks it against the level's
    canonical scale to catch add/mul scale mismatches statically.
    """

    kind: OpKind
    level: int
    count: float = 1.0
    dst_level: int | None = None  # ADJUST only
    scale_bits: float | None = None  # operand scale, if the program records it

    def __post_init__(self):
        if self.kind is OpKind.ADJUST and self.dst_level is None:
            raise ParameterError("ADJUST ops need a dst_level")
        if self.count < 0:
            raise ParameterError("op count must be non-negative")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "level": self.level,
            "count": self.count,
            "dst_level": self.dst_level,
            "scale_bits": self.scale_bits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceOp":
        return cls(
            kind=OpKind(data["kind"]),
            level=data["level"],
            count=data["count"],
            dst_level=data.get("dst_level"),
            scale_bits=data.get("scale_bits"),
        )


@dataclass(frozen=True)
class HeTrace:
    """A complete program trace plus its chain-planning constraints.

    Immutable: every rewrite (:meth:`extended`, ``dataclasses.replace``,
    the compiler's passes) constructs a new trace, which is what lets
    :func:`content_digest` be computed once per object.
    """

    name: str
    n: int
    base_bits: float
    level_scale_bits: tuple[float, ...]
    ops: tuple[TraceOp, ...] = ()
    _digest: str | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def max_level(self) -> int:
        return len(self.level_scale_bits) - 1

    @property
    def total_ops(self) -> float:
        return sum(op.count for op in self.ops)

    def count_by_kind(self) -> dict[OpKind, float]:
        out: dict[OpKind, float] = {}
        for op in self.ops:
            out[op.kind] = out.get(op.kind, 0.0) + op.count
        return out

    def validate(self) -> None:
        for op in self.ops:
            if not 0 <= op.level <= self.max_level:
                raise ParameterError(
                    f"{self.name}: op at level {op.level} outside chain "
                    f"[0, {self.max_level}]"
                )
            if op.kind is OpKind.RESCALE and op.level == 0:
                raise ParameterError(f"{self.name}: rescale at level 0")

    def extended(self, ops: Iterable[TraceOp]) -> "HeTrace":
        return replace(self, ops=self.ops + tuple(ops))

    def to_dict(self) -> dict:
        """JSON-ready form for the experiment runner's disk cache."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "n": self.n,
            "base_bits": self.base_bits,
            "level_scale_bits": list(self.level_scale_bits),
            "ops": [op.to_dict() for op in self.ops],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HeTrace":
        if not isinstance(data, dict):
            raise ParameterError("trace must decode to a JSON object")
        schema = data.get("schema", 1)
        if not isinstance(schema, int) or schema < 1:
            raise ParameterError(f"trace schema version {schema!r} is not valid")
        if schema > TRACE_SCHEMA_VERSION:
            raise ParameterError(
                f"trace schema version {schema} is newer than this reader "
                f"(supports <= {TRACE_SCHEMA_VERSION}); upgrade bitpacker-repro"
            )
        try:
            return cls(
                name=data["name"],
                n=data["n"],
                base_bits=data["base_bits"],
                level_scale_bits=tuple(data["level_scale_bits"]),
                ops=[TraceOp.from_dict(op) for op in data["ops"]],
            )
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed trace encoding: {exc}") from exc

    def content_digest(self) -> str:
        """Canonical content hash (see :func:`content_digest`)."""
        return content_digest(self)


def content_digest(trace: HeTrace) -> str:
    """sha256 over a canonical JSON encoding of ``trace``.

    The canonical form sorts keys and drops the ``schema`` marker, so the
    digest is stable under op-metadata dict ordering and serialization
    version churn, yet changes whenever any op, scale target, or chain
    constraint changes — exactly the identity the serve admission memo
    and eval cache keys need.  Kept on the (immutable) trace, so gate
    admissions after the first cost a field read.
    """
    if trace._digest is None:
        payload = trace.to_dict()
        payload.pop("schema", None)
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        object.__setattr__(
            trace, "_digest", hashlib.sha256(encoded.encode()).hexdigest()
        )
    return trace._digest


class TraceBuilder:
    """Incrementally records a program's operations.

    Workload generators use this as a tiny embedded DSL::

        b = TraceBuilder("rnn", n=65536, base_bits=60, level_scale_bits=...)
        b.hmul(level); b.rescale(level); b.hrot(level - 1, count=128)
        trace = b.build()
    """

    def __init__(
        self,
        name: str,
        n: int,
        base_bits: float,
        level_scale_bits: Iterable[float],
    ):
        self.name = name
        self.n = n
        self.base_bits = base_bits
        self.level_scale_bits = tuple(float(b) for b in level_scale_bits)
        self._ops: list[TraceOp] = []

    # Recording helpers ----------------------------------------------------
    def record(self, kind: OpKind, level: int, count: float = 1.0,
               dst_level: int | None = None,
               scale_bits: float | None = None) -> None:
        if count:
            self._ops.append(TraceOp(kind, level, count, dst_level, scale_bits))

    def hmul(self, level: int, count: float = 1.0) -> None:
        self.record(OpKind.HMUL, level, count)

    def hrot(self, level: int, count: float = 1.0) -> None:
        self.record(OpKind.HROT, level, count)

    def hadd(self, level: int, count: float = 1.0) -> None:
        self.record(OpKind.HADD, level, count)

    def pmul(self, level: int, count: float = 1.0) -> None:
        self.record(OpKind.PMUL, level, count)

    def padd(self, level: int, count: float = 1.0) -> None:
        self.record(OpKind.PADD, level, count)

    def rescale(self, level: int, count: float = 1.0) -> None:
        self.record(OpKind.RESCALE, level, count)

    def adjust(self, level: int, dst_level: int, count: float = 1.0) -> None:
        self.record(OpKind.ADJUST, level, count, dst_level)

    def extend(self, ops: Iterable[TraceOp]) -> None:
        """Append already-built ops (``TraceOp`` is frozen, so a recurring
        block can be recorded once and shared)."""
        self._ops.extend(ops)

    def build(self) -> HeTrace:
        trace = HeTrace(
            name=self.name,
            n=self.n,
            base_bits=self.base_bits,
            level_scale_bits=self.level_scale_bits,
            ops=self._ops,
        )
        trace.validate()
        return trace
