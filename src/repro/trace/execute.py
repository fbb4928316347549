"""Replay a trace against the functional CKKS engine, one op per entry.

The static verifier (:mod:`repro.analysis.absint`) predicts an interval
for every op's result scale and level.  :class:`TraceExecutor` produces
the matching ground truth: it executes each trace op once through the
real :class:`~repro.ckks.evaluator.Evaluator` and captures the result
via the sanitizer's op log (:func:`repro.analysis.sanitize.record_ops`),
so :func:`repro.analysis.absint.check_observations` can assert that
every concrete (level, scale) falls inside the abstract bounds — the
static and runtime layers checking each other.

Trace ops are *aggregates* (``count`` parallel instances of one shape),
and the abstract domain joins rather than composes them, so replay
mirrors that semantics: each op runs once on fresh canonical-scale
operands at its recorded level, with one twist — a multiply's result is
remembered per level and handed to the next RESCALE there, because the
rescale transfer consumes the un-rescaled product.  The executor
assumes a trace that verifies clean (run
:func:`~repro.analysis.absint.verify_or_raise` first); replaying a
corrupted schedule raises the library's usual errors instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis import sanitize
from repro.errors import InvariantViolation
from repro.trace.program import HeTrace, OpKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckks.ciphertext import Ciphertext
    from repro.ckks.context import CkksContext

#: Deterministic payload; values well inside (-1, 1) so minimax-style
#: depth does not overflow the value domain.
_VALUES = (0.5, -0.25, 0.125, 0.0625)


class TraceExecutor:
    """Replays :class:`~repro.trace.program.HeTrace` ops on a context."""

    def __init__(self, ctx: "CkksContext"):
        self.ctx = ctx
        self._canon: dict[int, "Ciphertext"] = {}

    def _canonical(self, level: int) -> "Ciphertext":
        """A fresh ciphertext at ``level``'s canonical scale (cached)."""
        ct = self._canon.get(level)
        if ct is None:
            ct = self.ctx.encrypt(_VALUES, level=level)
            self._canon[level] = ct
        return ct

    def run(
        self, trace: HeTrace
    ) -> list[tuple[int, sanitize.OpObservation]]:
        """Execute ``trace`` and return ``(op index, observation)`` pairs.

        One observation per non-empty op, captured under
        :func:`~repro.analysis.sanitize.record_ops` — exactly the input
        :func:`~repro.analysis.absint.check_observations` expects.
        """
        ev = self.ctx.evaluator
        products: dict[int, "Ciphertext"] = {}
        observed: list[tuple[int, sanitize.OpObservation]] = []
        with sanitize.record_ops() as log:
            for index, op in enumerate(trace.ops):
                if op.count == 0:
                    continue
                level = op.level
                before = len(log)
                if op.kind is OpKind.HMUL:
                    canon = self._canonical(level)
                    products[level] = ev.multiply(canon, canon)
                elif op.kind is OpKind.PMUL:
                    products[level] = ev.mul_plain(
                        self._canonical(level), _VALUES
                    )
                elif op.kind is OpKind.HADD:
                    canon = self._canonical(level)
                    ev.add(canon, canon)
                elif op.kind is OpKind.PADD:
                    ev.add_plain(self._canonical(level), _VALUES)
                elif op.kind is OpKind.HROT:
                    ev.rotate(self._canonical(level), 1)
                elif op.kind is OpKind.RESCALE:
                    src = products.pop(level, None)
                    if src is None:
                        src = self._canonical(level)
                    ev.rescale(src)
                elif op.kind is OpKind.ADJUST:
                    ev.adjust(self._canonical(level), op.dst_level)
                if len(log) != before + 1:
                    raise InvariantViolation(
                        f"op {index} ({op.kind.value}) logged "
                        f"{len(log) - before} observations, expected 1"
                    )
                observed.append((index, log[-1]))
        return observed
