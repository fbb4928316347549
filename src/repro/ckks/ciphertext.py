"""Plaintext and ciphertext value types.

A CKKS ciphertext is a pair of RNS polynomials ``(c0, c1)`` satisfying
``c0 + c1·s ≈ m`` where ``m`` encodes the slot vector at ``scale``
(paper Fig. 2).  The ``level`` indexes into the modulus chain; ``scale``
is kept as an exact :class:`~fractions.Fraction` so that precision
accounting (paper Sec. 6.5) is never polluted by bookkeeping error.

A ciphertext whose polynomials carry one leading batch shape ``(B,)``
(:attr:`RnsPolynomial.batch`) is ``B`` ciphertexts with one level, one
scale, one basis and one domain: :func:`stack` builds it, every
evaluator op runs on all ``B`` in one call, and :meth:`Ciphertext.unstack`
takes it apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
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
    def batch(self) -> tuple[int, ...]:
        """The leading batch shape: ``()`` for one ciphertext."""
        return self.c0.batch

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

    def unstack(self) -> list["Ciphertext"]:
        """The members of a batch along its first axis (views, no copy)."""
        if not self.batch:
            raise ParameterError("unstack needs a batch, got one ciphertext")
        c0, c1 = self.c0, self.c1
        return [
            self.with_polys(
                RnsPolynomial(c0.basis, m0, c0.domain),
                RnsPolynomial(c1.basis, m1, c1.domain),
            )
            for m0, m1 in zip(c0.mat, c1.mat)
        ]

    def __repr__(self) -> str:
        batch = f", batch={self.batch}" if self.batch else ""
        return (
            f"Ciphertext(level={self.level}, R={self.residue_count}, "
            f"log2_scale={self.log2_scale:.2f}{batch})"
        )


def stack(cts: Sequence[Ciphertext]) -> Ciphertext:
    """``cts`` as one batch along a new leading axis.

    The members must share a level, a scale (exactly), a basis, a
    domain and a batch shape: a batch has one of each, which is what
    lets every op run on it as on one ciphertext.
    """
    first = cts[0]
    key = (first.level, first.scale, first.basis, first.c0.domain, first.batch)
    for ct in cts:
        for poly in (ct.c0, ct.c1):
            if (ct.level, ct.scale, poly.basis, poly.domain, poly.batch) != key:
                raise ParameterError(
                    f"cannot stack {ct!r} ({poly.domain}) onto {first!r} "
                    f"({first.c0.domain}): a batch has one level, scale, "
                    "basis and domain"
                )
    c0, c1 = (
        RnsPolynomial(first.basis, np.stack([p.mat for p in polys]), first.c0.domain)
        for polys in ([ct.c0 for ct in cts], [ct.c1 for ct in cts])
    )
    return Ciphertext(c0=c0, c1=c1, level=first.level, scale=first.scale)
