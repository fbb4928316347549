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
1 x 2), inputs and rows as batches, double-hoisted: baby steps from one
decomposition, left lifted over the key-switch basis ``M ∪ P`` with no
mod-down; each inner sum one multiply-accumulate over ``M ∪ P``; giant
steps switched in one stacked keyswitch and accumulated before one
mod-down; diagonals kept encoded over ``M ∪ P`` on the
:class:`PlainBlock` per level used.  ``tests/oracles/bsgs.py`` runs the
same flow one piece at a time, and ``bsgs_sums`` equals it byte for
byte.
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
    per ``(basis, scale, giant step)`` applied at, each over the level's
    key-switch basis ``M ∪ P`` (:func:`bsgs_sums` multiplies lifted
    baby steps): the same level again
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
        giant rotation lands it in place, encoded at the level's scale
        over ``M ∪ P``, in NTT form, stacked over the rows as one
        ``(rows, |M ∪ P|, n)`` plaintext — one stacked transform per
        input, the first time.
        """
        chain = evaluator.chain
        basis = chain.basis_at(level).extended(chain.special_moduli)
        scale = chain.scale_at(level)
        key = (basis, scale, giant_step)
        if key in self._encoded:
            self._encoded.move_to_end(key)
            return self._encoded[key]
        encode = evaluator.encoder.encode
        plan = []
        for col, js in zip(zip(*self.diagonals), self.kept):
            # One input at a time, each diagonal an array as soon as it
            # is made: the transient stack stays one input's.
            coeffs = [
                [
                    np.asarray(encode(np.roll(diag[j], j - j % giant_step), scale))
                    for diag in col
                ]
                for j in js
            ]
            (stacked,) = to_domain([RnsPolynomial.from_int_coeffs(basis, coeffs)], NTT)
            plan.append({
                int(j): Plaintext(RnsPolynomial(basis, mat, NTT), scale, level)
                for j, mat in zip(js, stacked.mat)
            })
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
    Every stage runs on the whole block, double-hoisted (Bossuat et
    al., Eurocrypt 2021):

    (i) the baby steps ``P·rot(x_t, b)``, ``b < g``, of every input
    from one hoisted decomposition (:meth:`Evaluator.rotate_lifted`),
    each stopping at its NTT-form accumulators over ``M ∪ P``: no
    mod-down and no transform back;
    (ii) each giant step's inner sums over all of its (input, baby
    step) terms, for every row, in one multiply-accumulate per
    polynomial against the rows' stacked diagonals, encoded over
    ``M ∪ P`` (:meth:`Evaluator.mul_encoded_sum`), exact;
    (iii) the lifted inner sums into :meth:`Evaluator.rotate_sum`: the
    unrotated ones and every ``galois(c0)`` straight into its
    accumulators, the rotated ones' ``c1`` through one stacked mod-down
    and one stacked keyswitch.  A row's terms merge before the giant
    rotation (``Σ_t rot(s_t, i) = rot(Σ_t s_t, i)``), so it costs
    ``d/g - 1`` rotations however many terms it has;
    (iv) one mod-down and one rescale for all rows.

    Bit for bit the serial flow (``tests/oracles/bsgs.py``): one
    input's lifted baby steps, one row's products and one giant step's
    keyswitch at a time, one mod-down per output.  Its op log and
    ``op.*`` counters are the serial flow's when the rows share which
    diagonals are zero, as every CtS, StC and :class:`PlainMatrix`
    block does.  Rows that differ share the union:
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
        baby.unstack() for baby in evaluator.rotate_lifted(x, range(min(g, d)))
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
    del babies, pairs  # not held through the giant steps' keyswitch
    return evaluator.rescale(evaluator.rotate_sum(giants))


def _stacked(inputs: Sequence[Ciphertext]) -> Ciphertext:
    """``inputs`` as one coefficient-form batch at the first one's scale,
    refused as :meth:`Evaluator.add` refuses them (a level apart too)."""
    first = inputs[0]
    for ct in inputs[1:]:
        if ct.level != first.level:
            raise ParameterError("bsgs_sums inputs must share one level")
        check_addable(first, ct)
    polys = to_domain([p for ct in inputs for p in (ct.c0, ct.c1)], COEFF)
    return stack([
        replace(ct, c0=c0, c1=c1, scale=first.scale)
        for ct, c0, c1 in zip(inputs, polys[::2], polys[1::2])
    ])
