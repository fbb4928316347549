"""Plaintext and ciphertext value types.

A CKKS ciphertext is a pair of RNS polynomials ``(c0, c1)`` satisfying
``c0 + c1·s ≈ m`` where ``m`` encodes the slot vector at ``scale``
(paper Fig. 2).  The ``level`` indexes into the modulus chain; ``scale``
is kept as an exact :class:`~fractions.Fraction` so that precision
accounting (paper Sec. 6.5) is never polluted by bookkeeping error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from repro.obs import core as _obs
from repro.rns.basis import RnsBasis
from repro.rns.poly import COEFF, NTT, RnsPolynomial, to_domain


@dataclass(frozen=True)
class Plaintext:
    """An encoded (but unencrypted) polynomial."""

    poly: RnsPolynomial
    scale: Fraction
    level: int

    @property
    def basis(self) -> RnsBasis:
        return self.poly.basis


@dataclass(frozen=True)
class Ciphertext:
    """An RLWE ciphertext ``(c0, c1)`` at a chain level.

    Frozen: every homomorphic operation returns a new ciphertext, which
    keeps level-management code (where the same input is reused on both
    sides of an add, as in the paper's ``x² + x`` example) safe.
    """

    c0: RnsPolynomial
    c1: RnsPolynomial
    level: int
    scale: Fraction

    def __post_init__(self):
        if _obs.ACTIVE:
            _obs.check_ciphertext(self)

    @property
    def basis(self) -> RnsBasis:
        return self.c0.basis

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.c0.basis.moduli

    @property
    def residue_count(self) -> int:
        """Number of RNS residues ``R`` — the quantity BitPacker shrinks."""
        return self.c0.basis.size

    @property
    def log2_scale(self) -> float:
        s = Fraction(self.scale)
        return math.log2(s.numerator) - math.log2(s.denominator)

    def with_polys(self, c0: RnsPolynomial, c1: RnsPolynomial) -> "Ciphertext":
        return replace(self, c0=c0, c1=c1)

    def to_ntt(self) -> "Ciphertext":
        """The same ciphertext with both polynomials in NTT form."""
        return self.with_polys(*to_domain((self.c0, self.c1), NTT))

    def to_coeff(self) -> "Ciphertext":
        """The same ciphertext with both polynomials in coefficient form."""
        return self.with_polys(*to_domain((self.c0, self.c1), COEFF))

    def __repr__(self) -> str:
        return (
            f"Ciphertext(level={self.level}, R={self.residue_count}, "
            f"log2_scale={self.log2_scale:.2f})"
        )
