"""Homomorphic linear algebra: the building blocks the workloads use.

Every benchmark in the paper is built from three primitives on top of
the raw evaluator: slot-sum reductions (rotate-and-add trees), plaintext
matrix x ciphertext vector products via the diagonal method with
baby-step/giant-step rotation batching, and packed inner products.  This
module implements them against the scheme-agnostic evaluator, so they run
identically under BitPacker and RNS-CKKS chains.

The diagonal method: for a ``D x D`` matrix ``M`` acting on the first
``D`` slots, ``M·x = Σ_j diag_j(M) ⊙ rot(x, j)`` where ``diag_j(M)[i] =
M[i, (i+j) mod D]``.  BSGS splits ``j = g·i + b`` so only ``g + D/g``
rotations are needed instead of ``D``:

    M·x = Σ_i rot( Σ_b rot_{-g·i}(diag_{g·i+b}) ⊙ rot(x, b), g·i )

:func:`bsgs_sums` evaluates a whole block product ``out_r = Σ_t
M_{r,t}·x_t`` in one pass (CoeffToSlot is a 2 x 2 block, SlotToCoeff a
1 x 2): baby steps once per input, hoisted; giant steps once per output;
diagonals kept encoded on the :class:`PlainMatrix` per level used.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.errors import ParameterError
from repro.rns.poly import NTT, RnsPolynomial, to_domain

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckks.evaluator import Evaluator


def sum_slots(evaluator: "Evaluator", ct: Ciphertext, count: int) -> Ciphertext:
    """Sum the first ``count`` slots into every slot position.

    ``count`` must be a power of two and the remaining slots must be
    zero (the usual packing convention).  Uses log2(count) rotations.
    """
    if count < 1 or count & (count - 1):
        raise ParameterError(f"slot count must be a power of two, got {count}")
    acc = ct
    shift = 1
    while shift < count:
        acc = evaluator.add(acc, evaluator.rotate(acc, shift))
        shift *= 2
    return acc


def inner_product_plain(
    evaluator: "Evaluator", ct: Ciphertext, weights, count: int
) -> Ciphertext:
    """``<w, x>`` replicated into every slot: multiply then sum-reduce."""
    prod = evaluator.rescale(evaluator.mul_plain(ct, weights))
    return sum_slots(evaluator, prod, count)


class PlainMatrix:
    """A plaintext matrix prepared for homomorphic matvec.

    Stores the matrix's generalized diagonals, zero-padded to the slot
    count.  ``dimension`` must divide the slot count so rotations wrap
    consistently; in practice workloads pack one operand block per
    power-of-two region.

    The BSGS path multiplies by *encoded* diagonals and keeps the
    ``ENCODINGS_KEPT`` most recently used sets, one per ``(basis, scale,
    giant step)`` applied at: the same level again encodes nothing
    (ARK's memory-for-recomputation trade; ``dimension`` residue
    matrices a set).
    """

    #: Encoded diagonal sets kept per matrix, least recently used out.
    ENCODINGS_KEPT = 2

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
        self._encoded: OrderedDict[tuple, dict[int, Plaintext]] = OrderedDict()

    # ------------------------------------------------------------------
    def apply_naive(self, evaluator: "Evaluator", ct: Ciphertext) -> Ciphertext:
        """Diagonal method without BSGS: ``dimension`` rotations."""
        acc = None
        for j in np.flatnonzero(self.nonzero):
            rotated = evaluator.rotate(ct, int(j))
            term = evaluator.mul_plain(rotated, self.diagonals[j])
            acc = term if acc is None else evaluator.add(acc, term)
        if acc is None:
            raise ParameterError("matrix is identically zero")
        return evaluator.rescale(acc)

    def apply_bsgs(
        self, evaluator: "Evaluator", ct: Ciphertext, giant_step: int | None = None
    ) -> Ciphertext:
        """Diagonal method with baby-step/giant-step batching.

        Uses ``~2*sqrt(dimension)`` rotations — the count the workload
        models charge for their matvecs.  The one-term case of
        :func:`bsgs_sums`.
        """
        return bsgs_sums(evaluator, [[self]], [ct], giant_step)[0]

    def encoded(
        self, evaluator: "Evaluator", level: int, giant_step: int
    ) -> dict[int, Plaintext]:
        """Nonzero diagonal ``j`` ready for :meth:`Evaluator.mul_encoded`
        at ``level``: rotated by ``-(j - j mod giant_step)`` so the giant
        rotation lands it in place, encoded at the level's scale, in NTT
        form — all sent through one stacked transform, the first time.
        """
        chain = evaluator.chain
        basis, scale = chain.basis_at(level), chain.scale_at(level)
        key = (basis, scale, giant_step)
        if key in self._encoded:
            self._encoded.move_to_end(key)
            return self._encoded[key]
        kept = [int(j) for j in np.flatnonzero(self.nonzero)]
        shifted = (np.roll(self.diagonals[j], j - j % giant_step) for j in kept)
        polys = to_domain(
            [
                RnsPolynomial.from_int_coeffs(basis, evaluator.encoder.encode(v, scale))
                for v in shifted
            ],
            NTT,
        )
        plan = {j: Plaintext(poly, scale, level) for j, poly in zip(kept, polys)}
        self._encoded[key] = plan
        while len(self._encoded) > self.ENCODINGS_KEPT:
            self._encoded.popitem(last=False)
        return plan

    def reference(self, values: np.ndarray) -> np.ndarray:
        """Cleartext result on padded slot values (for tests/examples)."""
        d = self.dimension
        out = np.zeros(self.slots, dtype=self.matrix.dtype)
        for block in range(self.slots // d):
            seg = values[block * d : (block + 1) * d]
            out[block * d : (block + 1) * d] = self.matrix @ seg
        return out


def bsgs_sums(
    evaluator: "Evaluator",
    rows: Sequence[Sequence[PlainMatrix]],
    inputs: Sequence[Ciphertext],
    giant_step: int | None = None,
) -> list[Ciphertext]:
    """``out[r] = Σ_t rows[r][t] · inputs[t]``: a block matrix-vector
    product by the BSGS diagonal method, one rescale per output.

    Matrices share one dimension ``d``, inputs one level.  The baby
    steps ``rot(x_t, b)``, ``b < g``, are computed once per *input* —
    hoisted, then moved to NTT form in one stacked transform — and serve
    every row.  A row's terms merge before the giant rotation
    (``Σ_t rot(s_t, i) = rot(Σ_t s_t, i)``), so it costs ``d/g - 1`` of
    them however many terms it has.  Products and inner sums stay in
    NTT form; a giant rotation is the one inverse its inner sum sees.
    """
    d, level = rows[0][0].dimension, inputs[0].level
    if any(len(row) != len(inputs) for row in rows) or any(
        m.dimension != d for row in rows for m in row
    ):
        raise ParameterError(f"need one {d}-dimensional matrix per input in every row")
    if any(ct.level != level for ct in inputs):
        raise ParameterError("bsgs_sums inputs must share one level")
    g = giant_step or max(1, round(math.sqrt(d)))
    babies = [
        _all_to_ntt(evaluator.rotate_hoisted(ct, range(min(g, d)))) for ct in inputs
    ]
    outs = []
    for row in rows:
        plans = [m.encoded(evaluator, level, g) for m in row]
        acc = None
        for i in range(0, d, g):
            inner = None
            for plan, baby in zip(plans, babies):
                for b in range(min(g, d - i)):
                    if i + b in plan:
                        term = evaluator.mul_encoded(baby[b], plan[i + b])
                        inner = term if inner is None else evaluator.add(inner, term)
            if inner is None:
                continue
            outer = evaluator.rotate(inner, i) if i else inner
            acc = outer if acc is None else evaluator.add(acc, outer)
        if acc is None:
            raise ParameterError("matrix is identically zero")
        outs.append(evaluator.rescale(acc))
    return outs


def _all_to_ntt(cts: Sequence[Ciphertext]) -> list[Ciphertext]:
    """``cts`` in NTT form, every polynomial of them in one transform."""
    polys = to_domain([p for ct in cts for p in (ct.c0, ct.c1)], NTT)
    return [ct.with_polys(*polys[2 * i : 2 * i + 2]) for i, ct in enumerate(cts)]


def matvec(
    evaluator: "Evaluator",
    matrix,
    ct: Ciphertext,
    slots: int,
    bsgs: bool = True,
) -> Ciphertext:
    """One-shot plaintext-matrix x ciphertext-vector product."""
    pm = PlainMatrix(matrix, slots)
    if bsgs:
        return pm.apply_bsgs(evaluator, ct)
    return pm.apply_naive(evaluator, ct)
