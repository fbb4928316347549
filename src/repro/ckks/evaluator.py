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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keys import KeyChest, KeySwitchKey
from repro.errors import ParameterError, ScaleMismatchError
from repro.obs import core as _obs
from repro.nt.ntt import forward_rows, galois_permutation
from repro.rns.convert import convert_by_table, scale_down, scale_up
from repro.rns.poly import COEFF, NTT, RnsPolynomial, to_domain

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
        return _done(out, "hadd")

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_addable(a, b)
        a, b = self._settled(a, b)
        out = Ciphertext(
            c0=a.c0.sub(b.c0), c1=a.c1.sub(b.c1), level=a.level, scale=a.scale
        )
        return _done(out, "hadd")

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
        return _done(ct.with_polys(c0, ct.c1), "padd")

    def sub_plain(self, ct: Ciphertext, values) -> Ciphertext:
        if _is_real_scalar(values):
            c0 = ct.c0.add_constant(-self.encoder.encode_scalar(values, ct.scale))
        else:
            c0 = ct.c0.sub(self._plain_poly(ct, values, ct.scale))
        return _done(ct.with_polys(c0, ct.c1), "padd")

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
        if not _is_real_scalar(values):
            coeffs = self.encoder.encode(values, scale)
            poly = RnsPolynomial.from_int_coeffs(ct.basis, coeffs)
            return self.mul_encoded(ct, Plaintext(poly, scale, ct.level))
        k = self.encoder.encode_scalar(values, scale)
        out = Ciphertext(
            ct.c0.scalar_mul(k), ct.c1.scalar_mul(k), ct.level, ct.scale * scale
        )
        return _done(out, "pmul")

    def mul_encoded(self, ct: Ciphertext, plain: Plaintext) -> Ciphertext:
        """:meth:`mul_plain` by a plaintext already encoded over ``ct``'s
        basis.  Whichever of the three polynomials is not in NTT form
        goes there in one stacked transform; a caller that keeps
        ``plain`` in NTT form (:class:`repro.ckks.linalg.PlainMatrix`)
        pays no encoder FFT and no transform per product."""
        pt, c0, c1 = to_domain((plain.poly, ct.c0, ct.c1), NTT)
        out = Ciphertext(
            c0.pointwise_mul(pt), c1.pointwise_mul(pt), ct.level, ct.scale * plain.scale
        )
        return _done(out, "pmul")

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
        a0, a1, b0, b1 = to_domain((a.c0, a.c1, b.c0, b.c1), NTT)
        d0 = a0.pointwise_mul(b0)
        d1 = a0.pointwise_mul(b1).add(a1.pointwise_mul(b0))
        d2 = a1.pointwise_mul(b1)
        c0, c1 = self._keyswitch(d2, self.chest.relin_key(a.level), fold=(d0, d1))
        out = Ciphertext(c0=c0, c1=c1, level=a.level, scale=a.scale * b.scale)
        return _done(out, "hmul", "multiply")

    def square(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic squaring (slightly cheaper than a general multiply)."""
        c0n, c1n = to_domain((ct.c0, ct.c1), NTT)
        d0 = c0n.pointwise_mul(c0n)
        cross = c0n.pointwise_mul(c1n)
        d1 = cross.add(cross)
        d2 = c1n.pointwise_mul(c1n)
        c0, c1 = self._keyswitch(d2, self.chest.relin_key(ct.level), fold=(d0, d1))
        out = Ciphertext(c0=c0, c1=c1, level=ct.level, scale=ct.scale * ct.scale)
        return _done(out, "hmul", "square")

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------
    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """Rotate the encrypted vector left by ``steps`` slots."""
        return self.rotate_hoisted(ct, [steps])[0]

    def rotate_hoisted(self, ct: Ciphertext, steps: Sequence[int]) -> list[Ciphertext]:
        """``[rotate(ct, s) for s in steps]`` from one digit decomposition:
        ``c1``'s digits are extended and transformed once, and each
        rotation permutes them in NTT form.  Bit-identical to separate
        rotations — the exact centered base conversion commutes with
        the signed coefficient permutation ``X -> X^g``."""
        slots, two_n = self.encoder.slots, 2 * self.chain.n
        return self._apply_galois(ct, [pow(5, s % slots, two_n) for s in steps])

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate the encrypted slots."""
        return self._apply_galois(ct, [2 * self.chain.n - 1])[0]

    def _apply_galois(self, ct: Ciphertext, elements: Sequence[int]) -> list[Ciphertext]:
        """``ct`` under ``X -> X^g`` for each ``g`` (1 is ``ct`` itself)."""
        out: list[Ciphertext] = []
        c0 = c1 = ext = None
        for g in elements:
            if g == 1:
                out.append(ct)
                continue
            ksk = self.chest.galois_key(ct.level, g)
            if ext is None:
                # The digit layout is the level's, the same for every g.
                c0, c1 = to_domain((ct.c0, ct.c1), COEFF)
                ext = self._extended_digits(c1, ksk)
            # take, not ext[:, :, perm]: that would come back strided.
            turned = np.take(ext, galois_permutation(ct.basis.n, g), axis=2)
            k0, k1 = self._inner_product(turned, ksk)
            rotated = Ciphertext(
                c0=c0.galois(g).add(k0), c1=k1, level=ct.level, scale=ct.scale
            )
            out.append(_done(rotated, "hrot", "rotate"))
        return out

    # ------------------------------------------------------------------
    # Level management (delegated to the chain)
    # ------------------------------------------------------------------
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Move down one level, dividing the scale (paper Sec. 2.2)."""
        return _done(self.chain.rescale(ct), "rescale", "rescale")

    def adjust(self, ct: Ciphertext, dst_level: int) -> Ciphertext:
        """Bring ``ct`` to ``dst_level`` with that level's canonical scale."""
        return _done(self.chain.adjust(ct, dst_level), "adjust", "adjust")

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

        ``d`` is over the level's basis ``M``, in either domain: its
        digits are base-extended to ``M ∪ P`` and transformed, then
        folded with the key rows and scaled down by ``P`` (paper
        Sec. 4.3 maps both halves to the CRB FU).
        """
        return self._inner_product(self._extended_digits(d, ksk), ksk, fold)

    @staticmethod
    def _extended_digits(d: RnsPolynomial, ksk: KeySwitchKey) -> np.ndarray:
        """The ``(D, |M ∪ P|, n)`` NTT-form stack of ``d``'s digits.

        Digit ``j``'s own rows *are* ``d``'s residues; the rest come
        from base conversion (the CRB operation).  One forward call
        either way: the whole stack for a coefficient-form ``d``; for an
        NTT-form one, whose own rows are spliced in as they are, only
        the converted rows, over their moduli concatenated.
        """
        full = ksk.full
        d_coeff = d.to_coeff()
        ext = np.empty((ksk.digits, full.size, full.n), dtype=full.dtype)
        converted = []
        for j, (own, table) in enumerate(zip(ksk.own, ksk.tables)):
            ext[j, own] = d.mat[own]  # M is a prefix of M ∪ P: same row indices
            digit = d_coeff.mat[own].astype(table.src.dtype, copy=False)
            converted.append(
                convert_by_table(RnsPolynomial(table.src, digit, COEFF), table).mat
            )
        converted = np.concatenate(converted)
        if d.domain == NTT:
            converted = forward_rows(converted, ksk.converted_moduli)
        ext.reshape(-1, full.n)[ksk.converted_rows] = converted
        return ext if d.domain == NTT else forward_rows(ext, full.moduli)

    @staticmethod
    def _inner_product(
        ext: np.ndarray,
        ksk: KeySwitchKey,
        fold: tuple[RnsPolynomial, RnsPolynomial] | None = None,
    ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """``Σ_j ext[j] ⊙ rows[j]`` scaled down by ``P``: one keyswitch.

        ``fold = (f0, f1)``, NTT-form polynomials over ``M``, are added
        to the outputs: they enter the accumulators lifted by ``P``
        (``scale_up``: times ``P`` on ``M``, zero on ``P``), and
        ``round((acc + P·f) / P) = round(acc / P) + f`` exactly, so the
        caller's ``f + k`` costs no inverse transform of ``f``.  The two
        accumulators share their one inverse transform.
        """
        specials, full = ksk.special_moduli, ksk.full
        acc0, acc1 = (scale_up(f, specials) for f in fold) if fold else (None, None)
        for digit, (b_row, a_row) in zip(ext, ksk.rows):
            digit = RnsPolynomial(full, digit, NTT)
            if acc0 is None:
                acc0 = digit.pointwise_mul(b_row)
                acc1 = digit.pointwise_mul(a_row)
            else:
                # Fused multiply-accumulate: one kernel call per
                # digit instead of a product plus an add pass.
                acc0 = acc0.pointwise_mul_acc(digit, b_row)
                acc1 = acc1.pointwise_mul_acc(digit, a_row)
        acc0, acc1 = to_domain((acc0, acc1), COEFF)
        return _done(
            (scale_down(acc0, specials), scale_down(acc1, specials)),
            None, "keyswitch",
        )


def _done(out, kind: str | None, name: str | None = None):
    """Every op's return path, and the evaluator's one test of the
    instrumentation switch: ``out``, after the one seam call when a
    listener is attached (``op.<name>`` counted, ``kind`` logged)."""
    if _obs.ACTIVE:
        _obs.op(out, kind, name)
    return out


def _is_real_scalar(values) -> bool:
    """Whether ``values`` is one real number (not an array, not complex)."""
    return np.isscalar(values) and not isinstance(values, (complex, np.complexfloating))

