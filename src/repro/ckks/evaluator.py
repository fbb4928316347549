"""Homomorphic evaluation: add, multiply, rotate, and level management.

The evaluator is deliberately *scheme-agnostic*: rescale and adjust are
delegated to the modulus chain (RNS-CKKS or BitPacker), which is exactly
the paper's claim that BitPacker changes only level management while "all
other operations are exactly the same as in RNS-CKKS" (Sec. 3.1).

**Domain rule.**  A ciphertext's two polynomials share one domain, and
every op returns them in the domain it computed them in — nothing is
transformed back "to be safe".  Products (``mul_plain``) stop at the
Hadamard product, in NTT form; whatever ends in a ``scale_down``
(``multiply``, ``rotate``, ``rescale``, ``adjust``) comes out in
coefficient form; linear ops keep their operand's domain, and a binary
op on mixed domains brings the NTT operand to coefficient form.  Each
residue row is then transformed when an op needs the other domain and
not before, which is the (I)NTT count :mod:`repro.accel.kernels` charges.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis import sanitize as _san
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keys import KeyChest, KeySwitchKey
from repro.errors import ParameterError, ScaleMismatchError
from repro.obs import core as _obs
from repro.rns.convert import base_convert, scale_down, scale_up
from repro.rns.poly import NTT, RnsPolynomial

if TYPE_CHECKING:  # pragma: no cover
    from repro.schemes.chain import ModulusChain

#: Two scales are considered addable when they differ by less than this
#: relative amount.  Adjust's rounded constant (Listings 2/6) leaves
#: scales within ~2^-(scale_bits+1) of canonical, so ciphertexts that
#: took different adjust paths to the same level differ by up to ~2^-29
#: at 30-bit scales; the tolerance admits that while still rejecting any
#: real mismatch.  The value error folded in (< 2^-24 relative) is far
#: below the rescale rounding floor at every scale the paper uses.
SCALE_RTOL = Fraction(1, 1 << 24)


class Evaluator:
    """Homomorphic operations over one modulus chain."""

    def __init__(self, chain: "ModulusChain", chest: KeyChest, encoder: CkksEncoder):
        self.chain = chain
        self.chest = chest
        self.encoder = encoder

    # ------------------------------------------------------------------
    # Additive operations
    # ------------------------------------------------------------------
    def _check_addable(self, a: Ciphertext, b: Ciphertext) -> None:
        if a.level != b.level:
            raise ScaleMismatchError(
                f"cannot add ciphertexts at levels {a.level} and {b.level}; "
                "adjust one of them first"
            )
        if a.scale != b.scale:
            ratio = a.scale / b.scale
            if abs(ratio - 1) > SCALE_RTOL:
                raise ScaleMismatchError(
                    f"scales differ beyond tolerance: {float(a.scale):.6g} vs "
                    f"{float(b.scale):.6g}"
                )

    @staticmethod
    def _settled(a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Both operands in one domain: coefficient form if they differ."""
        if a.c0.domain == b.c0.domain:
            return a, b
        return a.to_coeff(), b.to_coeff()

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_addable(a, b)
        a, b = self._settled(a, b)
        out = Ciphertext(
            c0=a.c0.add(b.c0), c1=a.c1.add(b.c1), level=a.level, scale=a.scale
        )
        if _san.ACTIVE:
            _san.observe_op("hadd", out)
        return out

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_addable(a, b)
        a, b = self._settled(a, b)
        out = Ciphertext(
            c0=a.c0.sub(b.c0), c1=a.c1.sub(b.c1), level=a.level, scale=a.scale
        )
        if _san.ACTIVE:
            _san.observe_op("hadd", out)
        return out

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return ct.with_polys(ct.c0.neg(), ct.c1.neg())

    def _plain_poly(self, ct: Ciphertext, values, scale: Fraction) -> RnsPolynomial:
        """``values`` encoded at ``scale`` over ``ct``'s basis, in its domain."""
        coeffs = self.encoder.encode(values, scale)
        pt_poly = RnsPolynomial.from_int_coeffs(ct.basis, coeffs)
        return pt_poly.to_ntt() if ct.c0.domain == NTT else pt_poly

    def add_plain(self, ct: Ciphertext, values) -> Ciphertext:
        """Add an unencrypted vector (encoded at the ciphertext's scale).

        A real scalar encodes to a constant polynomial, so it skips the
        encoder and touches coefficient 0 only (every slot, in NTT form).
        """
        if _is_real_scalar(values):
            c0 = ct.c0.add_constant(self.encoder.encode_scalar(values, ct.scale))
        else:
            c0 = ct.c0.add(self._plain_poly(ct, values, ct.scale))
        out = ct.with_polys(c0, ct.c1)
        if _san.ACTIVE:
            _san.observe_op("padd", out)
        return out

    def sub_plain(self, ct: Ciphertext, values) -> Ciphertext:
        if _is_real_scalar(values):
            c0 = ct.c0.add_constant(-self.encoder.encode_scalar(values, ct.scale))
        else:
            c0 = ct.c0.sub(self._plain_poly(ct, values, ct.scale))
        out = ct.with_polys(c0, ct.c1)
        if _san.ACTIVE:
            _san.observe_op("padd", out)
        return out

    # ------------------------------------------------------------------
    # Scalar (integer-constant) operations
    # ------------------------------------------------------------------
    def mul_integer(self, ct: Ciphertext, k: int) -> Ciphertext:
        """Multiply the encrypted *values* by integer ``k`` (scale kept)."""
        return ct.with_polys(ct.c0.scalar_mul(k), ct.c1.scalar_mul(k))

    def scale_const(self, ct: Ciphertext, k: int) -> Ciphertext:
        """The paper's ``mulConst`` bookkeeping: coefficients and scale
        are both multiplied by ``k``, leaving the encrypted values
        unchanged.  This is the building block of ``adjust`` (Listings 2
        and 6)."""
        if k <= 0:
            raise ParameterError(f"scale constant must be positive, got {k}")
        return Ciphertext(
            c0=ct.c0.scalar_mul(k),
            c1=ct.c1.scalar_mul(k),
            level=ct.level,
            scale=ct.scale * k,
        )

    # ------------------------------------------------------------------
    # Multiplicative operations
    # ------------------------------------------------------------------
    def mul_plain(
        self, ct: Ciphertext, values, scale: Fraction | int | None = None
    ) -> Ciphertext:
        """Multiply by an unencrypted vector encoded at ``scale``.

        The result's scale is the product of the two scales; callers
        rescale when appropriate, exactly as with ciphertext products.
        It stays in NTT form — the Hadamard product is the whole op —
        except for a real scalar, which is a constant polynomial: an
        integer multiply in whatever domain ``ct`` is in, with no
        encoder FFT and no transform at all.
        """
        if scale is None:
            scale = self.chain.scale_at(ct.level)
        scale = Fraction(scale)
        if _is_real_scalar(values):
            k = self.encoder.encode_scalar(values, scale)
            c0, c1 = ct.c0.scalar_mul(k), ct.c1.scalar_mul(k)
        else:
            coeffs = self.encoder.encode(values, scale)
            pt_poly = RnsPolynomial.from_int_coeffs(ct.basis, coeffs).to_ntt()
            c0 = ct.c0.to_ntt().pointwise_mul(pt_poly)
            c1 = ct.c1.to_ntt().pointwise_mul(pt_poly)
        out = Ciphertext(c0=c0, c1=c1, level=ct.level, scale=ct.scale * scale)
        if _san.ACTIVE:
            _san.observe_op("pmul", out)
        return out

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic multiply with relinearization (no rescale).

        The resulting scale is ``a.scale * b.scale``; follow with
        :meth:`rescale` to bring it back down (paper Sec. 2.2).  The
        tensor terms ``d0``, ``d1`` never leave NTT form: they ride the
        keyswitch's mod-down, whose output is in coefficient form.
        """
        if a.level != b.level:
            raise ScaleMismatchError(
                f"cannot multiply ciphertexts at levels {a.level} and {b.level}"
            )
        if _obs.ACTIVE:
            _obs.count("op.multiply")
            _obs.count("op.multiply.elems", a.basis.size * a.basis.n)
        a0, a1 = a.c0.to_ntt(), a.c1.to_ntt()
        b0, b1 = b.c0.to_ntt(), b.c1.to_ntt()
        d0 = a0.pointwise_mul(b0)
        d1 = a0.pointwise_mul(b1).add(a1.pointwise_mul(b0))
        d2 = a1.pointwise_mul(b1)
        c0, c1 = self._keyswitch(d2, self.chest.relin_key(a.level), fold=(d0, d1))
        out = Ciphertext(c0=c0, c1=c1, level=a.level, scale=a.scale * b.scale)
        if _san.ACTIVE:
            _san.observe_op("hmul", out)
        return out

    def square(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic squaring (slightly cheaper than a general multiply)."""
        if _obs.ACTIVE:
            _obs.count("op.square")
            _obs.count("op.square.elems", ct.basis.size * ct.basis.n)
        c0n, c1n = ct.c0.to_ntt(), ct.c1.to_ntt()
        d0 = c0n.pointwise_mul(c0n)
        cross = c0n.pointwise_mul(c1n)
        d1 = cross.add(cross)
        d2 = c1n.pointwise_mul(c1n)
        c0, c1 = self._keyswitch(d2, self.chest.relin_key(ct.level), fold=(d0, d1))
        out = Ciphertext(c0=c0, c1=c1, level=ct.level, scale=ct.scale * ct.scale)
        if _san.ACTIVE:
            _san.observe_op("hmul", out)
        return out

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------
    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """Rotate the encrypted vector left by ``steps`` slots."""
        slots = self.encoder.slots
        steps %= slots
        if steps == 0:
            return ct
        g = pow(5, steps, 2 * self.chain.n)
        return self._apply_galois(ct, g)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate the encrypted slots."""
        return self._apply_galois(ct, 2 * self.chain.n - 1)

    def _apply_galois(self, ct: Ciphertext, g: int) -> Ciphertext:
        if _obs.ACTIVE:
            _obs.count("op.rotate")
            _obs.count("op.rotate.elems", ct.basis.size * ct.basis.n)
        c0 = ct.c0.to_coeff().galois(g)
        c1 = ct.c1.to_coeff().galois(g)
        k0, k1 = self._keyswitch(c1, self.chest.galois_key(ct.level, g))
        out = Ciphertext(
            c0=c0.add(k0), c1=k1, level=ct.level, scale=ct.scale
        )
        if _san.ACTIVE:
            _san.observe_op("hrot", out)
        return out

    # ------------------------------------------------------------------
    # Level management (delegated to the chain)
    # ------------------------------------------------------------------
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Move down one level, dividing the scale (paper Sec. 2.2)."""
        if _obs.ACTIVE:
            _obs.count("op.rescale")
            _obs.count("op.rescale.elems", ct.basis.size * ct.basis.n)
        out = self.chain.rescale(ct)
        if _san.ACTIVE:
            _san.observe_op("rescale", out)
        return out

    def adjust(self, ct: Ciphertext, dst_level: int) -> Ciphertext:
        """Bring ``ct`` to ``dst_level`` with that level's canonical scale."""
        if _obs.ACTIVE:
            _obs.count("op.adjust")
            _obs.count("op.adjust.elems", ct.basis.size * ct.basis.n)
        out = self.chain.adjust(ct, dst_level)
        if _san.ACTIVE:
            _san.observe_op("adjust", out)
        return out

    def multiply_rescale(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.rescale(self.multiply(a, b))

    def square_rescale(self, ct: Ciphertext) -> Ciphertext:
        return self.rescale(self.square(ct))

    # ------------------------------------------------------------------
    # Keyswitching (hybrid, digit-decomposed)
    # ------------------------------------------------------------------
    def _keyswitch(
        self,
        d: RnsPolynomial,
        ksk: KeySwitchKey,
        fold: tuple[RnsPolynomial, RnsPolynomial] | None = None,
    ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Return ``(k0, k1)`` with ``k0 + k1·s ≈ d·target``, in coefficient form.

        ``d`` is over the level's basis ``M``, in either domain.  Each
        digit is base-extended from its own moduli to the rest of
        ``M ∪ P`` (the CRB operation — a digit's own rows *are* its
        residues there), folded with the key rows in NTT space, and the
        sum is scaled down by ``P`` (paper Sec. 4.3 maps these to the
        CRB FU).  When ``d`` arrives in NTT form its rows are spliced in
        as they are, so only the rows base conversion produced get a
        forward transform.

        ``fold = (f0, f1)``, NTT-form polynomials over ``M``, are added
        to the outputs: they enter the accumulators lifted by ``P``
        (``scale_up``: times ``P`` on ``M``, zero on ``P``), and
        ``round((acc + P·f) / P) = round(acc / P) + f`` exactly, so the
        caller's ``f + k`` costs no inverse transform of ``f``.
        """
        if _obs.ACTIVE:
            _obs.count("op.keyswitch")
            _obs.count("op.keyswitch.elems", d.basis.size * d.basis.n)
        specials = ksk.special_moduli
        full = ksk.rows[0][0].basis
        d_coeff = d.to_coeff()
        acc0, acc1 = (scale_up(f, specials) for f in fold) if fold else (None, None)
        for group, (b_row, a_row) in zip(ksk.digit_groups, ksk.rows):
            own = [full.index_of(q) for q in group]
            rest = [i for i in range(full.size) if i not in own]
            converted = base_convert(
                d_coeff.restricted(group), [full.moduli[i] for i in rest]
            )
            if d.domain == NTT:
                converted = converted.to_ntt()
            mat = np.empty((full.size, full.n), dtype=full.dtype)
            mat[own] = d.mat[own]  # M is a prefix of M ∪ P: same row indices
            mat[rest] = converted.mat
            ext = RnsPolynomial(full, mat, d.domain).to_ntt()
            if acc0 is None:
                acc0 = ext.pointwise_mul(b_row)
                acc1 = ext.pointwise_mul(a_row)
            else:
                # Fused multiply-accumulate: one backend dispatch per
                # digit instead of a product plus an add pass.
                acc0 = acc0.pointwise_mul_acc(ext, b_row)
                acc1 = acc1.pointwise_mul_acc(ext, a_row)
        k0 = scale_down(acc0.to_coeff(), specials)
        k1 = scale_down(acc1.to_coeff(), specials)
        return k0, k1


def _is_real_scalar(values) -> bool:
    """Whether ``values`` is one real number (not an array, not complex)."""
    return np.isscalar(values) and not isinstance(values, (complex, np.complexfloating))

