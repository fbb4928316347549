"""Kernel decompositions: homomorphic ops -> primitive FU operations.

Every homomorphic operation is expressed as counts of the accelerator's
primitive vector operations (paper Sec. 4.2):

- ``ntt_passes`` — full N-point (I)NTTs of one residue row,
- ``mul/add_passes`` — elementwise passes over one residue row,
- ``auto_passes`` — automorphism (lane permutation) passes,
- ``crb_jobs`` — change-of-RNS-base jobs as ``(src_rows, dst_rows)``
  pairs: each destination row accumulates ``src_rows`` multiply-adds per
  element (this is what the CRB / bConv FU executes),
- ``kshgen_passes`` — on-chip keyswitch-hint expansion,
- ``hbm_bytes`` — off-chip traffic,
- ``resident_rows`` — the residue rows that must stay on chip for the op
  (ciphertexts + hints + temporaries), feeding the register-file model.

The decompositions mirror the functional implementation in
:mod:`repro.ckks.evaluator` and :mod:`repro.rns.convert` one-for-one, so
the performance model and the executable library cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.schemes.chain import ModulusChain
from repro.trace.program import OpKind, TraceOp


@dataclass
class OpCost:
    """Primitive-operation counts for one homomorphic operation."""

    ntt_passes: float = 0.0
    mul_passes: float = 0.0
    add_passes: float = 0.0
    auto_passes: float = 0.0
    crb_jobs: list[tuple[float, float]] = field(default_factory=list)
    kshgen_passes: float = 0.0
    hbm_rows: float = 0.0
    resident_rows: float = 0.0

    @property
    def crb_mac_rows(self) -> float:
        """Total (dst row x src MAC) products across all CRB jobs."""
        return sum(src * dst for src, dst in self.crb_jobs)

    def scaled(self, factor: float) -> "OpCost":
        return OpCost(
            ntt_passes=self.ntt_passes * factor,
            mul_passes=self.mul_passes * factor,
            add_passes=self.add_passes * factor,
            auto_passes=self.auto_passes * factor,
            crb_jobs=[(s, d * factor) for s, d in self.crb_jobs],
            kshgen_passes=self.kshgen_passes * factor,
            hbm_rows=self.hbm_rows * factor,
            resident_rows=self.resident_rows,  # peak, not additive
        )

    def merged(self, other: "OpCost") -> "OpCost":
        return OpCost(
            ntt_passes=self.ntt_passes + other.ntt_passes,
            mul_passes=self.mul_passes + other.mul_passes,
            add_passes=self.add_passes + other.add_passes,
            auto_passes=self.auto_passes + other.auto_passes,
            crb_jobs=self.crb_jobs + other.crb_jobs,
            kshgen_passes=self.kshgen_passes + other.kshgen_passes,
            hbm_rows=self.hbm_rows + other.hbm_rows,
            resident_rows=max(self.resident_rows, other.resident_rows),
        )


def keyswitch_cost(r: int, k: int, digits: int, kshgen: bool) -> OpCost:
    """Hybrid keyswitch of one polynomial over ``r`` residues.

    ``k`` special moduli, ``digits`` decomposition digits.  Matches
    :meth:`repro.ckks.evaluator.Evaluator._keyswitch`:

    1. INTT the input (``r`` rows).
    2. Per digit: CRB-extend ``r/digits`` rows to ``r + k`` rows, NTT the
       newly produced rows, multiply-accumulate with both hint rows.
    3. Mod-down by the ``k`` specials: INTT, CRB ``k -> r``, multiply by
       ``P^{-1}`` and subtract (both output polynomials).
    """
    cost = OpCost()
    digits = max(1, min(digits, r))
    src = r / digits
    full = r + k
    cost.ntt_passes += r  # INTT input
    for _ in range(digits):
        cost.crb_jobs.append((src, full - src))
        cost.ntt_passes += full - src
        cost.mul_passes += 2 * full  # fold with hint rows (b_j, a_j)
        cost.add_passes += 2 * full  # accumulate
    # Mod-down by specials for both accumulated polynomials.
    cost.ntt_passes += 2 * full  # INTT accumulators
    cost.crb_jobs.append((k, 2 * r))
    cost.mul_passes += 2 * r  # * P^{-1}
    cost.add_passes += 2 * r  # subtract lifted part
    cost.ntt_passes += 2 * r  # back to evaluation form
    if kshgen:
        cost.kshgen_passes += 2 * digits * full  # expand hints on chip
        cost.hbm_rows += 0.0
    else:
        cost.hbm_rows += 2 * digits * full  # stream hints from HBM
    # Residency: 2 ct polys (2r) + hints (2*digits*full) + extended
    # digits and accumulators (~3*full).
    cost.resident_rows = 2 * r + 2 * digits * full + 3 * full
    return cost


def hmul_cost(r: int, k: int, digits: int, kshgen: bool = True) -> OpCost:
    """Ciphertext x ciphertext multiply with relinearization (Sec. 4.2)."""
    cost = OpCost()
    cost.mul_passes += 4 * r  # d0, d1 (x2), d2
    cost.add_passes += r  # d1 accumulation
    cost = cost.merged(keyswitch_cost(r, k, digits, kshgen))
    cost.add_passes += 2 * r  # fold keyswitch output into (d0, d1)
    cost.hbm_rows += 4 * r  # stream in both operand ciphertexts
    cost.resident_rows += 4 * r  # both operands resident during products
    return cost


def hrot_cost(r: int, k: int, digits: int, kshgen: bool = True) -> OpCost:
    """Homomorphic rotation: automorphism + keyswitch (cost ~ hmul)."""
    cost = OpCost()
    cost.auto_passes += 2 * r
    cost = cost.merged(keyswitch_cost(r, k, digits, kshgen))
    cost.add_passes += r  # fold into c0
    cost.hbm_rows += 2 * r
    cost.resident_rows += 2 * r
    return cost


def hadd_cost(r: int) -> OpCost:
    """Ciphertext addition: negligible (paper Sec. 2.2)."""
    return OpCost(add_passes=2 * r, hbm_rows=4 * r, resident_rows=4 * r)


def pmul_cost(r: int) -> OpCost:
    """Ciphertext x plaintext multiply (no keyswitch)."""
    return OpCost(mul_passes=2 * r, hbm_rows=3 * r, resident_rows=3 * r)


def padd_cost(r: int) -> OpCost:
    """Ciphertext + plaintext."""
    return OpCost(add_passes=r, hbm_rows=3 * r, resident_rows=3 * r)


def rescale_cost(r: int, added: int, shed: int) -> OpCost:
    """Rescale (Listing 4): scale-up by ``added`` moduli, scale-down by
    ``shed``; with none to add, Listing 1's pure scale-down.

    The scale-up is one constant multiply per residue row; the new rows
    are zeros and cost nothing (Listing 3, Sec. 4.3).
    """
    cost = _scale_down_cost(r + added, shed)
    if added:
        cost.mul_passes += 2 * r  # mulConst on both polynomials
    return cost


def adjust_cost(r: int, added: int, shed: int) -> OpCost:
    """Adjust (Listing 6; Listing 2 with none to add): constant multiply
    + rescale."""
    cost = OpCost(mul_passes=2 * r)
    return cost.merged(rescale_cost(r, added, shed))


def op_cost(op: TraceOp, chain: ModulusChain, kshgen: bool) -> OpCost:
    """Kernel decomposition of one trace op through the chain — the one
    op-kind dispatch, shared by the accelerator and CPU models."""
    r = chain.residues_at(op.level)
    k = len(chain.special_moduli)
    digits = chain.ks_digits
    if op.kind is OpKind.HMUL:
        return hmul_cost(r, k, digits, kshgen)
    if op.kind is OpKind.HROT:
        return hrot_cost(r, k, digits, kshgen)
    if op.kind is OpKind.HADD:
        return hadd_cost(r)
    if op.kind is OpKind.PMUL:
        return pmul_cost(r)
    if op.kind is OpKind.PADD:
        return padd_cost(r)
    if op.kind is OpKind.RESCALE:
        move = chain.move(op.level, op.level - 1)
        return rescale_cost(r, len(move.added), len(move.shed))
    if op.kind is OpKind.ADJUST:
        # Residue drops down to dst+1 are free; the priced step is the
        # final constant-multiply + rescale into dst's basis.
        step_level = min(op.dst_level + 1, op.level)
        move = chain.move(step_level, op.dst_level)
        return adjust_cost(
            chain.residues_at(step_level), len(move.added), len(move.shed)
        )
    raise SimulationError(f"unknown op kind {op.kind}")


def _scale_down_cost(r: int, shed: int) -> OpCost:
    """Listing 5 on the accelerator (Sec. 4.3).

    INTT the ``shed`` rows, CRB them onto the ``r - shed`` survivors in a
    single multi-modulus pass, then one multiply and subtract per
    surviving row, and NTT back — for both ciphertext polynomials.
    """
    keep = max(r - shed, 0)
    cost = OpCost()
    cost.ntt_passes += 2 * shed  # INTT rows being shed
    cost.crb_jobs.append((shed, 2 * keep))
    cost.mul_passes += 2 * keep
    cost.add_passes += 2 * keep
    cost.ntt_passes += 2 * keep  # results back to evaluation form
    cost.hbm_rows += 2 * r
    cost.resident_rows = 4 * r
    return cost
