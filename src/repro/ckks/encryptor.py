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
from repro.nt.crt import centered_int64
from repro.rns.poly import COEFF, NTT, RnsPolynomial, to_domain
from repro.rns.sampling import sample_gaussian, sample_ternary, sample_uniform

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
        u = sample_ternary(basis, rng).to_ntt()
        e0 = sample_gaussian(basis, rng, sigma)
        e1 = sample_gaussian(basis, rng, sigma)
        bu, au = to_domain([pk.b.pointwise_mul(u), pk.a.pointwise_mul(u)], COEFF)
        c0 = bu.add(e0).add(pt.poly)
        c1 = au.add(e1)
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
        e = sample_gaussian(basis, rng, self.chest.sigma)
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
        """Decrypt and decode to complex slot values (complex128).

        The centered coefficients come out as one int64 vector
        (:func:`repro.nt.crt.centered_int64`); only a plaintext with a
        coefficient beyond int64, or a modulus that rules the fast path
        out, reconstructs through Python ints.  One ciphertext's only:
        a batch raises (:meth:`~repro.ckks.ciphertext.Ciphertext.unstack`
        it first).
        """
        if ct.batch:
            raise ParameterError(
                f"decrypt reads one ciphertext, not a {ct.batch} batch"
            )
        poly = self.decrypt_to_plaintext(ct).poly
        coeffs = centered_int64(poly.mat, poly.basis.moduli)
        if coeffs is None:
            coeffs = poly.to_int_coeffs()
        return self.encoder.decode(coeffs, ct.scale)

    def decrypt_real(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt and decode, dropping the (noise-only) imaginary part."""
        return np.real(self.decrypt(ct))
