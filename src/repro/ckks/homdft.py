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
:func:`repro.ckks.linalg.bsgs_sums`, which rotates every input's baby
steps once (hoisted) and every output's giant steps once (at n = 128,
28 and 21 rotations instead of 56 and 28), against diagonals the
matrices keep encoded from one bootstrap to the next.  Each inner sum
is one multiply-accumulate, and the giant steps of an output share one
mod-down (CtS takes 2 where its 14 giant rotations took one each, StC
1 for 7).  This module
computes those matrices exactly from the encoder's evaluation
points and applies them with real homomorphic operations — together with
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
from repro.ckks.linalg import PlainMatrix, bsgs_sums
from repro.errors import ParameterError

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


@lru_cache(maxsize=16)
def homdft_matrices(n: int) -> HomDftMatrices:
    """Solve the block system in the module docstring for degree ``n``."""
    slots = n // 2
    v = decode_matrix(n)
    v1, v2 = v[:, :slots], v[:, slots:]
    block = np.block([[v1, v2], [np.conj(v1), np.conj(v2)]])
    inv = np.linalg.inv(block)
    return HomDftMatrices(
        n,
        *(
            PlainMatrix(m, slots)
            for m in (
                inv[:slots, :slots], inv[:slots, slots:],
                inv[slots:, :slots], inv[slots:, slots:],
                v1, v2,
            )
        ),
    )


def coeff_to_slot(
    ev: "Evaluator", ct: Ciphertext
) -> tuple[Ciphertext, Ciphertext]:
    """Move the plaintext's coefficients into slots (CtS).

    For a ciphertext whose underlying *coefficients* are real (the case
    for bootstrapping's mod-raised input), returns two ciphertexts whose
    slots hold the first and second halves of the coefficient vector,
    each divided by the input scale.  Costs one multiplicative level and
    one conjugation; the 2 x 2 block product shares the baby steps of
    ``z`` and of ``conj(z)`` between both outputs.
    """
    mats = homdft_matrices(ev.chain.n)
    first, second = bsgs_sums(
        ev, [[mats.p1, mats.q1], [mats.p2, mats.q2]], [ct, ev.conjugate(ct)]
    )
    return first, second


def slot_to_coeff(
    ev: "Evaluator", first: Ciphertext, second: Ciphertext
) -> Ciphertext:
    """Inverse of :func:`coeff_to_slot` (StC): repack slot-held halves.

    The result's slots equal ``V1·a + V2·b`` — i.e. the decoded values of
    the polynomial whose coefficient halves are the inputs' slot values.
    Costs one multiplicative level.
    """
    if first.level != second.level:
        raise ParameterError(
            f"slot_to_coeff operands at levels {first.level} != {second.level}"
        )
    mats = homdft_matrices(ev.chain.n)
    return bsgs_sums(ev, [[mats.v1, mats.v2]], [first, second])[0]
