"""Encryption and decryption.

Public-key encryption follows the textbook RLWE construction
(paper Fig. 2): with ``pk = (b, a)``, ``b = -a·s + e``,

    Enc(m) = (b·u + e0 + m,  a·u + e1)

for a fresh ternary ``u`` and Gaussian ``e0, e1``.  Decryption is
``m ≈ c0 + c1·s``.  A cheaper symmetric mode (fresh uniform ``c1``) is
provided for tests and experiments where no public key is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keys import KeyChest
from repro.errors import ParameterError
from repro.rns.poly import NTT, RnsPolynomial
from repro.rns.sampling import (
    sample_gaussian_coeffs,
    sample_ternary_coeffs,
    sample_uniform,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.schemes.chain import ModulusChain


class Encryptor:
    """Encode-and-encrypt front end bound to one chain and key chest."""

    def __init__(self, chain: "ModulusChain", chest: KeyChest, encoder: CkksEncoder):
        self.chain = chain
        self.chest = chest
        self.encoder = encoder

    # ------------------------------------------------------------------
    def encode(
        self,
        values: Sequence[complex] | np.ndarray | float,
        level: int | None = None,
        scale: Fraction | int | None = None,
    ) -> Plaintext:
        """Encode values onto the basis (and default scale) of ``level``."""
        if level is None:
            level = self.chain.max_level
        if scale is None:
            scale = self.chain.scale_at(level)
        scale = Fraction(scale)
        coeffs = self.encoder.encode(values, scale)
        poly = RnsPolynomial.from_int_coeffs(self.chain.basis_at(level), coeffs)
        return Plaintext(poly=poly, scale=scale, level=level)

    def encrypt_plaintext(self, pt: Plaintext) -> Ciphertext:
        """Public-key encryption of an encoded plaintext."""
        pk = self.chest.public_key(pt.level)
        basis = pt.basis
        rng = self.chest.rng
        sigma = self.chest.sigma
        u = RnsPolynomial.from_int_coeffs(
            basis, sample_ternary_coeffs(basis.n, rng)
        ).to_ntt()
        e0 = RnsPolynomial.from_int_coeffs(
            basis, sample_gaussian_coeffs(basis.n, rng, sigma)
        )
        e1 = RnsPolynomial.from_int_coeffs(
            basis, sample_gaussian_coeffs(basis.n, rng, sigma)
        )
        c0 = pk.b.pointwise_mul(u).to_coeff().add(e0).add(pt.poly)
        c1 = pk.a.pointwise_mul(u).to_coeff().add(e1)
        return Ciphertext(c0=c0, c1=c1, level=pt.level, scale=pt.scale)

    def encrypt(
        self,
        values: Sequence[complex] | np.ndarray | float,
        level: int | None = None,
        scale: Fraction | int | None = None,
    ) -> Ciphertext:
        """Encode and public-key encrypt in one step."""
        return self.encrypt_plaintext(self.encode(values, level, scale))

    def encrypt_symmetric(
        self,
        values: Sequence[complex] | np.ndarray | float,
        level: int | None = None,
        scale: Fraction | int | None = None,
    ) -> Ciphertext:
        """Secret-key encryption: ``c1`` uniform, ``c0 = -c1·s + e + m``."""
        pt = self.encode(values, level, scale)
        basis = pt.basis
        rng = self.chest.rng
        s = self.chest.secret.lift(basis)
        c1 = sample_uniform(basis, rng, NTT)
        e = RnsPolynomial.from_int_coeffs(
            basis, sample_gaussian_coeffs(basis.n, rng, self.chest.sigma)
        )
        c0 = c1.pointwise_mul(s).to_coeff().neg().add(e).add(pt.poly)
        return Ciphertext(c0=c0, c1=c1.to_coeff(), level=pt.level, scale=pt.scale)


class Decryptor:
    """Decrypts and decodes ciphertexts (holds the secret key)."""

    def __init__(self, chain: "ModulusChain", chest: KeyChest, encoder: CkksEncoder):
        self.chain = chain
        self.chest = chest
        self.encoder = encoder

    def decrypt_to_plaintext(self, ct: Ciphertext) -> Plaintext:
        s = self.chest.secret.lift(ct.basis)
        m = ct.c1.to_ntt().pointwise_mul(s)
        # c0 joins the product on whichever side of the one inverse
        # transform it already is.
        if ct.c0.domain == NTT:
            m = m.add(ct.c0).to_coeff()
        else:
            m = m.to_coeff().add(ct.c0)
        return Plaintext(poly=m, scale=ct.scale, level=ct.level)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt and decode to complex slot values (clongdouble)."""
        pt = self.decrypt_to_plaintext(ct)
        return self.encoder.decode(pt.poly.to_int_coeffs(), pt.scale)

    def decrypt_real(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt and decode, dropping the (noise-only) imaginary part."""
        return np.real(self.decrypt(ct))

    def noise_coefficients(self, ct: Ciphertext, reference: Plaintext) -> list[int]:
        """Exact coefficient-level noise vs a reference plaintext.

        Useful for tests that pin down where error enters: returns
        ``Dec(ct) - reference`` as big integers.
        """
        if ct.scale != reference.scale:
            raise ParameterError("reference plaintext scale mismatch")
        got = self.decrypt_to_plaintext(ct).poly.to_int_coeffs()
        want = reference.poly.to_int_coeffs()
        return [g - w for g, w in zip(got, want)]
