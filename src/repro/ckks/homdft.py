"""Homomorphic CoeffToSlot / SlotToCoeff — bootstrapping's linear stages.

Bootstrapping needs to move between the two views of a CKKS plaintext:
its *coefficients* (where modular reduction must happen) and its *slots*
(where homomorphic arithmetic is slotwise).  Both directions are linear
maps over the canonical embedding, evaluated homomorphically with the
diagonal-method matvec of :mod:`repro.ckks.linalg` plus one conjugation
(paper Sec. 2.2's CtS/StC; Lattigo evaluates factored versions of the
same matrices).

Let ``V`` be the decode matrix, ``z = V·m / S`` the slot values of a
ciphertext with *real* coefficient vector ``m`` at scale ``S``.  Splitting
``m = [m1; m2]`` into halves and using ``conj(z) = conj(V)·m / S``:

    [z; conj(z)] = 1/S · [[V1, V2], [conj(V1), conj(V2)]] · [m1; m2]

so inverting that block matrix once (it is a scaled DFT — perfectly
conditioned) yields complex matrices ``P1, Q1, P2, Q2`` with

    m1/S = P1·z + Q1·conj(z),     m2/S = P2·z + Q2·conj(z)

CoeffToSlot is therefore a 2 x 2 block product on ``[z; conj(z)]`` plus a
conjugation, and SlotToCoeff is the 1 x 2 block product
``z = V1·(m1/S) + V2·(m2/S)`` — each one call of
:func:`repro.ckks.linalg.bsgs_sums`, which runs the block's inputs as
one batch and its rows as another, double-hoisted.  The inputs' baby
steps come from one hoisted decomposition (at n = 128, 28 and 21
rotations instead of 56 and 28) and stay lifted over ``M ∪ P``, with
no mod-down; each giant step's inner sums, every row at once, are one
multiply-accumulate against diagonals the block keeps encoded over
``M ∪ P`` and stacked over its rows from one bootstrap to the next;
and all of a call's rotated giant steps take one stacked mod-down and
one stacked keyswitch (one base conversion, one forward) before one
mod-down for all outputs: CtS switches its 14 giant rotations so, StC
its 7.  CtS returns
the two halves as one batch, the batch EvalMod runs on, and StC takes
them so.  This module computes those matrices exactly from the
encoder's evaluation points and applies them with real homomorphic
operations — together with
:mod:`repro.ckks.evalmod` it makes every computational stage of
bootstrapping genuinely homomorphic in this library (DESIGN.md documents
what remains modeled: the end-to-end BS19/BS26 parameterization).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.linalg import PlainBlock, PlainMatrix, bsgs_sums

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckks.evaluator import Evaluator


@lru_cache(maxsize=16)
def decode_matrix(n: int) -> np.ndarray:
    """The exact ``n/2 x n`` embedding matrix ``V[t, k] = ζ^{5^t · k}``.

    Row ``t`` evaluates a coefficient vector at the slot-``t`` root
    ``ζ^{5^t}`` (ζ the primitive 2n-th root of unity), matching
    :class:`repro.ckks.encoder.CkksEncoder` exactly.
    """
    slots = n // 2
    two_n = 2 * n
    exps = np.empty(slots, dtype=np.int64)
    e = 1
    for t in range(slots):
        exps[t] = e
        e = e * 5 % two_n
    k = np.arange(n)
    angles = np.pi * (exps[:, None] * k[None, :] % two_n) / n
    return np.cos(angles) + 1j * np.sin(angles)


@dataclass(frozen=True)
class HomDftMatrices:
    """CtS/StC matrices for one ring degree, ready to apply: each is a
    :class:`~repro.ckks.linalg.PlainMatrix` (``.matrix`` is the array)
    that keeps its encoded diagonals from one bootstrap to the next."""

    n: int
    p1: PlainMatrix
    q1: PlainMatrix
    p2: PlainMatrix
    q2: PlainMatrix
    v1: PlainMatrix
    v2: PlainMatrix
    cts: PlainBlock
    stc: PlainBlock


@lru_cache(maxsize=16)
def homdft_matrices(n: int) -> HomDftMatrices:
    """Solve the block system in the module docstring for degree ``n``."""
    slots = n // 2
    v = decode_matrix(n)
    v1, v2 = v[:, :slots], v[:, slots:]
    block = np.block([[v1, v2], [np.conj(v1), np.conj(v2)]])
    inv = np.linalg.inv(block)
    p1, q1, p2, q2, w1, w2 = (
        PlainMatrix(m, slots)
        for m in (
            inv[:slots, :slots], inv[:slots, slots:],
            inv[slots:, :slots], inv[slots:, slots:],
            v1, v2,
        )
    )
    return HomDftMatrices(
        n, p1, q1, p2, q2, w1, w2,
        PlainBlock([[p1, q1], [p2, q2]]), PlainBlock([[w1, w2]]),
    )


def coeff_to_slot(ev: "Evaluator", ct: Ciphertext) -> Ciphertext:
    """Move the plaintext's coefficients into slots (CtS).

    For a ciphertext whose underlying *coefficients* are real (the case
    for bootstrapping's mod-raised input), returns one batch of two
    ciphertexts, on its leading axis, whose slots hold the first and
    second halves of the coefficient vector, each divided by the input
    scale.  Costs one multiplicative level and one conjugation; the
    2 x 2 block product runs ``z`` and ``conj(z)`` as one batch and both
    outputs as another.
    """
    return bsgs_sums(ev, homdft_matrices(ev.chain.n).cts, [ct, ev.conjugate(ct)])


def slot_to_coeff(ev: "Evaluator", halves: Ciphertext) -> Ciphertext:
    """Inverse of :func:`coeff_to_slot` (StC): repack slot-held halves,
    given as the batch CtS returns (first half at index 0).

    The result's slots equal ``V1·a + V2·b`` — i.e. the decoded values of
    the polynomial whose coefficient halves are the inputs' slot values.
    Costs one multiplicative level.
    """
    (out,) = bsgs_sums(ev, homdft_matrices(ev.chain.n).stc, halves).unstack()
    return out
