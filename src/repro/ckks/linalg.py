"""Homomorphic linear algebra: plaintext-matrix x ciphertext-vector
products by the diagonal method with baby-step/giant-step rotation
batching, which the bootstrap's linear transforms (CoeffToSlot and
SlotToCoeff, :mod:`repro.ckks.homdft`) run on.  They are written against
the scheme-agnostic evaluator, so they run identically under BitPacker
and RNS-CKKS chains.

The diagonal method: for a ``D x D`` matrix ``M`` acting on the first
``D`` slots, ``M·x = Σ_j diag_j(M) ⊙ rot(x, j)`` where ``diag_j(M)[i] =
M[i, (i+j) mod D]``.  BSGS splits ``j = g·i + b`` so only ``g + D/g``
rotations are needed instead of ``D``:

    M·x = Σ_i rot( Σ_b rot_{-g·i}(diag_{g·i+b}) ⊙ rot(x, b), g·i )

:func:`bsgs_sums` evaluates a whole block product ``out_r = Σ_t
M_{r,t}·x_t`` in one pass (CoeffToSlot is a 2 x 2 block, SlotToCoeff a
1 x 2), inputs and rows as batches: baby steps hoisted; each inner sum
one multiply-accumulate; giant steps switched in one stacked keyswitch
and accumulated before one mod-down; diagonals kept encoded on the
:class:`PlainBlock` per level used.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext, stack
from repro.ckks.evaluator import check_addable
from repro.errors import ParameterError
from repro.rns.poly import COEFF, NTT, RnsPolynomial, to_domain

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckks.evaluator import Evaluator


class PlainMatrix:
    """A plaintext matrix prepared for homomorphic matvec.

    Stores the matrix's generalized diagonals, zero-padded to the slot
    count.  ``dimension`` must divide the slot count so rotations wrap
    consistently; in practice workloads pack one operand block per
    power-of-two region.  :func:`bsgs_sums` runs it inside a
    :class:`PlainBlock`, which keeps its encoded diagonals.
    """

    def __init__(self, matrix, slots: int):
        m = np.asarray(matrix)
        m = m.astype(complex) if np.iscomplexobj(m) else m.astype(float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError(f"need a square matrix, got shape {m.shape}")
        self.dimension = m.shape[0]
        if self.dimension > slots:
            raise ParameterError(
                f"matrix dimension {self.dimension} exceeds {slots} slots"
            )
        if slots % self.dimension:
            raise ParameterError(
                f"matrix dimension {self.dimension} must divide {slots} slots"
            )
        self.slots = slots
        self.matrix = m
        d = self.dimension
        i = np.arange(d)
        # diagonals[j, i] = M[i, (i + j) mod d], tiled across the slots.
        self.diagonals = np.tile(m[i, (i + i[:, None]) % d], slots // d)
        #: Which diagonals have any nonzero entry (the rest are skipped).
        self.nonzero = self.diagonals.any(axis=1)


class PlainBlock:
    """A block of :class:`PlainMatrix` — ``rows[r][t]`` maps input ``t``
    into output ``r`` — with its diagonals encoded once per level.

    It keeps the ``ENCODINGS_KEPT`` most recently used encoded sets, one
    per ``(basis, scale, giant step)`` applied at: the same level again
    encodes nothing (ARK's memory-for-recomputation trade).  It holds
    the matrices' diagonal arrays, not the matrices.
    """

    #: Encoded diagonal sets kept per block, least recently used out.
    ENCODINGS_KEPT = 2

    def __init__(self, rows: Sequence[Sequence[PlainMatrix]]):
        d = self.dimension = rows[0][0].dimension
        self.inputs = len(rows[0])
        if any(len(row) != self.inputs for row in rows) or any(
            m.dimension != d for row in rows for m in row
        ):
            raise ParameterError(f"need one {d}-dimensional matrix per input per row")
        if not all(any(m.nonzero.any() for m in row) for row in rows):
            raise ParameterError("matrix is identically zero")
        self.diagonals = [[m.diagonals for m in row] for row in rows]
        #: Per input, the diagonals some row holds nonzero.
        self.kept = [
            np.flatnonzero(np.any([row[t].nonzero for row in rows], axis=0))
            for t in range(self.inputs)
        ]
        self._encoded: OrderedDict[tuple, list[dict[int, Plaintext]]] = OrderedDict()

    def encoded(
        self, evaluator: "Evaluator", level: int, giant_step: int
    ) -> list[dict[int, Plaintext]]:
        """Per input ``t``, each diagonal ``j`` some row holds nonzero,
        ready for :meth:`Evaluator.mul_encoded_sum` at ``level``: every
        row's diagonal rotated by ``-(j - j mod giant_step)`` so the
        giant rotation lands it in place, encoded at the level's scale,
        in NTT form, stacked over the rows as one ``(rows, R, n)``
        plaintext — all in one stacked transform, the first time.
        """
        chain = evaluator.chain
        basis, scale = chain.basis_at(level), chain.scale_at(level)
        key = (basis, scale, giant_step)
        if key in self._encoded:
            self._encoded.move_to_end(key)
            return self._encoded[key]
        encode = evaluator.encoder.encode
        stacked = (
            RnsPolynomial(basis, np.stack([
                RnsPolynomial.from_int_coeffs(
                    basis, encode(np.roll(diag[j], j - j % giant_step), scale)
                ).mat
                for diag in col
            ]), COEFF)
            for col, js in zip(zip(*self.diagonals), self.kept)
            for j in js
        )
        polys = iter(to_domain(list(stacked), NTT))
        plan = [
            {int(j): Plaintext(next(polys), scale, level) for j in js}
            for js in self.kept
        ]
        self._encoded[key] = plan
        while len(self._encoded) > self.ENCODINGS_KEPT:
            self._encoded.popitem(last=False)
        return plan


def bsgs_sums(
    evaluator: "Evaluator",
    block: PlainBlock,
    inputs: Ciphertext | Sequence[Ciphertext],
    giant_step: int | None = None,
) -> Ciphertext:
    """``out[r] = Σ_t block[r][t] · inputs[t]``: a block matrix-vector
    product by the BSGS diagonal method, every output rescaled.

    ``inputs`` holds one ciphertext per block column, or is one batch
    whose leading axis does; the outputs come back as one batch, row
    ``r`` at index ``r``.  Matrices share one dimension ``d``, inputs
    one level and (within ``SCALE_RTOL``) one scale, the first one's.
    Every stage runs on the whole block:

    (i) the baby steps ``rot(x_t, b)``, ``b < g``, of every input from
    one hoisted decomposition, moved to NTT form in one transform;
    (ii) each giant step's inner sums over all of its (input, baby
    step) terms, for every row, in one multiply-accumulate per
    polynomial against the rows' stacked diagonals
    (:meth:`Evaluator.mul_encoded_sum`), exact and in NTT form;
    (iii) the rotated inner sums in one stacked keyswitch
    (:meth:`Evaluator.rotate_sum`): a row's terms merge before the giant
    rotation (``Σ_t rot(s_t, i) = rot(Σ_t s_t, i)``), so it costs ``d/g
    - 1`` rotations however many terms it has;
    (iv) one mod-down and one rescale for all rows.

    Bit for bit the serial flow: one input's baby steps, one row's
    products and one giant step's keyswitch at a time, one mod-down per
    output.  Its op log and ``op.*`` counters are the serial flow's when
    the rows share which diagonals are zero, as every CtS, StC and
    :class:`PlainMatrix` block does.  Rows that differ share the union:
    a row pays a ``pmul`` (and ``hadd``) for each diagonal another row
    holds, and a rotation and keyswitch for each giant step another row
    has terms in.  A zero diagonal multiplies as zeros, so the bytes do
    not change.
    """
    x = inputs if isinstance(inputs, Ciphertext) else _stacked(inputs)
    d, level = block.dimension, x.level
    if x.batch[:1] != (block.inputs,):
        raise ParameterError(f"need {block.inputs} inputs, one per block column")
    g = giant_step or max(1, round(math.sqrt(d)))
    babies = [
        baby.unstack()
        for baby in _all_to(evaluator.rotate_hoisted(x, range(min(g, d))), NTT)
    ]
    plans = block.encoded(evaluator, level, g)
    giants = []
    for i in range(0, d, g):
        pairs = [
            (babies[b][t], plan[i + b])
            for t, plan in enumerate(plans)
            for b in range(min(g, d - i))
            if i + b in plan
        ]
        if pairs:
            giants.append((i, evaluator.mul_encoded_sum(pairs)))
    return evaluator.rescale(evaluator.rotate_sum(giants))


def _stacked(inputs: Sequence[Ciphertext]) -> Ciphertext:
    """``inputs`` as one coefficient-form batch at the first one's scale,
    refused as :meth:`Evaluator.add` refuses them (a level apart too)."""
    first = inputs[0]
    for ct in inputs[1:]:
        if ct.level != first.level:
            raise ParameterError("bsgs_sums inputs must share one level")
        check_addable(first, ct)
    return stack([replace(ct, scale=first.scale) for ct in _all_to(inputs, COEFF)])


def _all_to(cts: Sequence[Ciphertext], domain: str) -> list[Ciphertext]:
    """``cts`` in ``domain``, every polynomial of them in one transform."""
    polys = to_domain([p for ct in cts for p in (ct.c0, ct.c1)], domain)
    return [ct.with_polys(*polys[2 * i : 2 * i + 2]) for i, ct in enumerate(cts)]

