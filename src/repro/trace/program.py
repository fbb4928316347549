"""Trace IR: the operation stream the performance models consume.

A trace is scheme-agnostic: it records *what* the program does (operation
kind, level, multiplicity) together with the program constraints of
Fig. 8 (per-level target scales, base modulus width).  Each scheme's
planner turns those constraints into a modulus chain; the simulator then
prices every trace op through that chain's per-level residue counts.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

import numpy as np

from repro.errors import ParameterError, json_field

#: Serialized-trace schema version.  Readers accept any version up to and
#: including this one (older encodings omitted the field entirely, which
#: decodes as version 1); a *newer* version is a clean
#: :class:`~repro.errors.ParameterError`, never a traceback.
TRACE_SCHEMA_VERSION = 1

_INT = (int,)
_REAL = (int, float)
_field = functools.partial(json_field, "trace")


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
        kind = _field(data, "kind", (str,), "op")
        try:
            kind = OpKind(kind)
        except ValueError:
            raise ParameterError(
                f"malformed trace encoding: unknown op kind {kind!r}"
            ) from None
        return cls(
            kind=kind,
            level=_field(data, "level", _INT, "op"),
            count=_field(data, "count", _REAL, "op"),
            dst_level=_field(data, "dst_level", _INT, "op", optional=True),
            scale_bits=_field(data, "scale_bits", _REAL, "op", optional=True),
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
    _distinct: "OpTable | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def max_level(self) -> int:
        return len(self.level_scale_bits) - 1

    def distinct_ops(self) -> "OpTable":
        """The trace's :class:`OpTable`, found once per (immutable) trace;
        a trace from :class:`TraceBuilder` comes with it."""
        if self._distinct is None:
            object.__setattr__(
                self, "_distinct", _Interner().extend(self.ops).table())
        return self._distinct

    def validate(self) -> None:
        max_level = self.max_level
        for op in self.distinct_ops().ops:
            if not 0 <= op.level <= max_level:
                raise ParameterError(
                    f"{self.name}: op at level {op.level} outside chain "
                    f"[0, {max_level}]"
                )
            if op.kind is OpKind.RESCALE and op.level == 0:
                raise ParameterError(f"{self.name}: rescale at level 0")

    def extended(self, ops: Iterable[TraceOp]) -> "HeTrace":
        return replace(self, ops=self.ops + tuple(ops))

    def to_dict(self) -> dict:
        """JSON-ready form (trace files, compile reports)."""
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
        scales = _field(data, "level_scale_bits", (list,), "trace")
        if not scales or not all(
            isinstance(bits, _REAL) and not isinstance(bits, bool)
            for bits in scales
        ):
            raise ParameterError(
                "malformed trace encoding: level_scale_bits must be a "
                "non-empty list of numbers"
            )
        n = _field(data, "n", _INT, "trace")
        if n < 1 or n & (n - 1):
            raise ParameterError(
                f"malformed trace encoding: ring degree n={n} is not a "
                "power of two"
            )
        return cls(
            name=_field(data, "name", (str,), "trace"),
            n=n,
            base_bits=_field(data, "base_bits", _REAL, "trace"),
            level_scale_bits=tuple(scales),
            ops=[
                TraceOp.from_dict(op)
                for op in _field(data, "ops", (list,), "trace")
            ],
        )


class OpTable(NamedTuple):
    """A trace's distinct ops, and where each of its ops sits among them.

    A trace repeats a few dozen distinct ops thousands of times, so every
    per-op consumer (:func:`content_digest`, the cost models' pricing,
    :meth:`HeTrace.validate`) works on ``ops`` and maps back through
    ``at``: ``trace.ops[i]`` equals ``ops[at[i]]`` field by field, types
    included.  ``1 == 1.0`` but the two encode apart, so the types are
    part of the identity; an op with a float zero is never merged,
    because ``0.0 == -0.0`` but they encode apart too.
    """

    #: Distinct ops, in the order the trace first reaches them.
    ops: tuple[TraceOp, ...]
    #: Each trace op's index into ``ops`` (read-only ``intp``).
    at: np.ndarray


def _op_key(op: TraceOp) -> tuple:
    """What :class:`OpTable` merges on: every field's value and type."""
    level, count, dst, scale = op.level, op.count, op.dst_level, op.scale_bits
    # ``_value_``, not ``kind``: hashing an Enum is a Python call.
    return (op.kind._value_, level, count, dst, scale,
            type(level), type(count), type(dst), type(scale))


def _mergeable(key: tuple) -> bool:
    """False for an op with a float zero (``0.0 == -0.0``)."""
    return not any(isinstance(v, float) and not v for v in key[1:5])


class _Interner:
    """Builds an :class:`OpTable` one op at a time."""

    __slots__ = ("distinct", "at", "_rows", "_blocks")

    def __init__(self):
        self.distinct: list[TraceOp] = []
        self.at: list[int] = []
        self._rows: dict[tuple, int] = {}
        #: id(table) -> (table, its ops' rows): see :meth:`extend_table`.
        self._blocks: dict[int, tuple[OpTable, list[int]]] = {}

    def record(self, kind: OpKind, level, count, dst_level, scale_bits
               ) -> None:
        # The key of :func:`_op_key`, without building the op first.
        key = (kind._value_, level, count, dst_level, scale_bits,
               type(level), type(count), type(dst_level), type(scale_bits))
        row = self._rows.get(key)
        if row is None:
            row = self._new_row(
                TraceOp(kind, level, count, dst_level, scale_bits), key)
        self.at.append(row)

    def row(self, op: TraceOp) -> int:
        """``op``'s row, new if no earlier op equals it."""
        key = _op_key(op)
        row = self._rows.get(key)
        return self._new_row(op, key) if row is None else row

    def extend(self, ops: Iterable[TraceOp]) -> "_Interner":
        self.at.extend(map(self.row, ops))
        return self

    def extend_table(self, table: OpTable) -> None:
        """Append the ops ``table`` describes.  A walker appends one
        bootstrap block over and over, so a table whose ops all merge
        is resolved once."""
        known = self._blocks.get(id(table))
        if known is not None and known[0] is table:
            self.at.extend(known[1])
            return
        rows = [self.row(op) for op in table.ops]
        at = list(map(rows.__getitem__, table.at.tolist()))
        if all(_mergeable(_op_key(op)) for op in table.ops):
            self._blocks[id(table)] = (table, at)
        self.at.extend(at)

    def _new_row(self, op: TraceOp, key: tuple) -> int:
        row = len(self.distinct)
        self.distinct.append(op)
        if _mergeable(key):
            self._rows[key] = row
        return row

    def ops(self) -> list[TraceOp]:
        """The recorded stream, each op its row's one object."""
        return list(map(self.distinct.__getitem__, self.at))

    def table(self) -> OpTable:
        at = np.array(self.at, dtype=np.intp)
        at.flags.writeable = False
        return OpTable(tuple(self.distinct), at)


_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def content_digest(trace: HeTrace) -> str:
    """sha256 over a canonical JSON encoding of ``trace``.

    The canonical form sorts keys and drops the ``schema`` marker, so the
    digest is stable under op-metadata dict ordering and serialization
    version churn, yet changes whenever any op, scale target, or chain
    constraint changes — exactly the identity the serve admission memo
    and eval cache keys need.  Kept on the (immutable) trace, so gate
    admissions after the first cost a field read.

    The bytes are those of ``json.dumps(to_dict() minus schema,
    sort_keys=True)``, assembled without the dicts: ``"ops"`` sorts
    last, and each distinct op (:meth:`HeTrace.distinct_ops`) is encoded
    once.
    """
    if trace._digest is None:
        header = _canonical_json({
            "base_bits": trace.base_bits,
            "level_scale_bits": list(trace.level_scale_bits),
            "n": trace.n,
            "name": trace.name,
        })
        table = trace.distinct_ops()
        fragments = [_canonical_json(op.to_dict()) for op in table.ops]
        ops = ",".join(map(fragments.__getitem__, table.at.tolist()))
        encoded = f'{header[:-1]},"ops":[{ops}]}}'
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
        self._ops = _Interner()

    # Recording helpers ----------------------------------------------------
    def record(self, kind: OpKind, level: int, count: float = 1.0,
               dst_level: int | None = None,
               scale_bits: float | None = None) -> None:
        """Append one op; equal ops share one :class:`TraceOp` (see
        :class:`OpTable`)."""
        if count:
            self._ops.record(kind, level, count, dst_level, scale_bits)

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

    def extend(self, block: HeTrace) -> None:
        """Append a built trace's ops: a recurring block is recorded and
        built once, then appended each time it recurs."""
        self._ops.extend_table(block.distinct_ops())

    def build(self) -> HeTrace:
        trace = HeTrace(
            name=self.name,
            n=self.n,
            base_bits=self.base_bits,
            level_scale_bits=self.level_scale_bits,
            ops=self._ops.ops(),
        )
        object.__setattr__(trace, "_distinct", self._ops.table())
        trace.validate()
        return trace
