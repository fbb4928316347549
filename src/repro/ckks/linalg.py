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
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.errors import ParameterError

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
        reps = slots // d
        self.diagonals: list[np.ndarray] = []
        for j in range(d):
            diag = np.array([m[i, (i + j) % d] for i in range(d)], dtype=m.dtype)
            self.diagonals.append(np.tile(diag, reps))

    # ------------------------------------------------------------------
    def apply_naive(self, evaluator: "Evaluator", ct: Ciphertext) -> Ciphertext:
        """Diagonal method without BSGS: ``dimension`` rotations."""
        acc = None
        for j, diag in enumerate(self.diagonals):
            if not np.any(diag):
                continue
            rotated = evaluator.rotate(ct, j)
            term = evaluator.mul_plain(rotated, diag)
            acc = term if acc is None else evaluator.add(acc, term)
        if acc is None:
            raise ParameterError("matrix is identically zero")
        return evaluator.rescale(acc)

    def apply_bsgs(
        self, evaluator: "Evaluator", ct: Ciphertext, giant_step: int | None = None
    ) -> Ciphertext:
        """Diagonal method with baby-step/giant-step batching.

        Uses ``~2*sqrt(dimension)`` rotations — the count the workload
        models charge for their matvecs.  Each baby step goes to NTT
        form once, where every diagonal product and every inner sum
        stays; a giant step's rotation is the one inverse transform its
        inner sum sees.
        """
        d = self.dimension
        g = giant_step or max(1, round(math.sqrt(d)))
        baby_count = min(g, d)
        # Baby steps: rot(x, b) for b < g, computed and transformed once.
        babies = [ct.to_ntt()]
        for b in range(1, baby_count):
            babies.append(evaluator.rotate(ct, b).to_ntt())
        acc = None
        for i in range(0, d, g):
            inner = None
            for b in range(min(g, d - i)):
                diag = self.diagonals[i + b]
                if not np.any(diag):
                    continue
                # Pre-rotate the plaintext diagonal by -i so the final
                # giant rotation lands it in place.
                shifted = np.roll(diag, i)
                term = evaluator.mul_plain(babies[b], shifted)
                inner = term if inner is None else evaluator.add(inner, term)
            if inner is None:
                continue
            outer = evaluator.rotate(inner, i) if i else inner
            acc = outer if acc is None else evaluator.add(acc, outer)
        if acc is None:
            raise ParameterError("matrix is identically zero")
        return evaluator.rescale(acc)

    def reference(self, values: np.ndarray) -> np.ndarray:
        """Cleartext result on padded slot values (for tests/examples)."""
        d = self.dimension
        out = np.zeros(self.slots, dtype=self.matrix.dtype)
        for block in range(self.slots // d):
            seg = values[block * d : (block + 1) * d]
            out[block * d : (block + 1) * d] = self.matrix @ seg
        return out


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
