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
coefficient form, and a rotation stopped before it (``rotate_lifted``)
in NTT form over ``M ∪ P``; linear ops keep their operand's domain, and
a binary op on mixed domains brings the NTT operand to coefficient
form.  Each
residue row is then transformed when an op needs the other domain and
not before, which is the (I)NTT count :mod:`repro.accel.kernels` charges.

**Batch rule.**  An operand may be a batch
(:func:`repro.ckks.ciphertext.stack`): ``B`` ciphertexts with one level,
one scale, one basis and one domain, whose polynomials carry a leading
batch axis.  Every op runs on it as on one ciphertext, in the same
kernel calls with ``B`` times the elements; a plaintext, a constant and
a key broadcast to every member, and the op log reads ``B`` ops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from repro import backends as _backends
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keys import KeyChest, KeySwitchKey
from repro.errors import ParameterError, ScaleMismatchError
from repro.obs import core as _obs
from repro.nt.ntt import forward_rows, galois_permutation
from repro.rns.convert import convert_by_table, scale_down, scale_down_all, scale_up
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


def check_addable(a, b) -> None:
    """Raise :class:`ScaleMismatchError` unless ``a`` and ``b`` (anything
    with a ``level`` and a ``scale``) sit at one level with scales
    within ``SCALE_RTOL``: what :meth:`Evaluator.add` demands."""
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


class Evaluator:
    """Homomorphic operations over one modulus chain."""

    def __init__(self, chain: "ModulusChain", chest: KeyChest, encoder: CkksEncoder):
        self.chain = chain
        self.chest = chest
        self.encoder = encoder

    # ------------------------------------------------------------------
    # Additive operations
    # ------------------------------------------------------------------
    @staticmethod
    def _settled(a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Both operands in one domain: coefficient form if they differ."""
        if a.c0.domain == b.c0.domain:
            return a, b
        return a.to_coeff(), b.to_coeff()

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        check_addable(a, b)
        a, b = self._settled(a, b)
        out = Ciphertext(
            c0=a.c0.add(b.c0), c1=a.c1.add(b.c1), level=a.level, scale=a.scale
        )
        return _done(out, "hadd")

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        check_addable(a, b)
        a, b = self._settled(a, b)
        out = Ciphertext(
            c0=a.c0.sub(b.c0), c1=a.c1.sub(b.c1), level=a.level, scale=a.scale
        )
        return _done(out, "hadd")

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

    def mul_encoded_sum(
        self, pairs: Sequence[tuple[Ciphertext, Plaintext]]
    ) -> Ciphertext:
        """``Σ mul_encoded(ct, plain)`` over ``pairs``, in NTT form.

        One multiply-accumulate kernel call per polynomial sums every
        term, reducing lazily (:func:`repro.backends.pointwise_mul_acc`);
        the arithmetic is exact, so the result is bit-identical to the
        products added one by one.  The terms must be addable, as
        :meth:`add` would demand, and the sum takes the first one's
        scale.  A plaintext may be a batch too (rows of a
        :class:`repro.ckks.linalg.PlainBlock`): its batch axes lead the
        ciphertext's in the result's.  The op log still reads one
        ``pmul`` per term and one ``hadd`` per merge, per member.
        """
        first, plain = pairs[0]
        basis, scale = first.basis, first.scale * plain.scale
        for ct, pt in pairs[1:]:
            if pt.basis != basis:
                raise ScaleMismatchError(f"basis mismatch: {pt.basis} vs {basis}")
            if (ct.level, ct.scale, pt.scale) != (
                first.level, first.scale, plain.scale
            ):
                term = _Logical(ct.level, ct.scale * pt.scale)
                check_addable(_Logical(first.level, scale), term)
        polys = to_domain([p for ct, pt in pairs for p in (pt.poly, ct.c0, ct.c1)], NTT)
        plains = [poly.mat for poly in polys[::3]]
        if first.batch:  # (*plain batch, 1, ..., 1, R, n)
            lead = (1,) * len(first.batch) + plains[0].shape[-2:]
            plains = [p.reshape(p.shape[:-2] + lead) for p in plains]
        c0, c1 = (
            RnsPolynomial(
                basis,
                _backends.pointwise_mul_acc(
                    None, [poly.mat for poly in polys[i::3]], plains,
                    basis.q_col, basis.kind,
                ),
                NTT,
            )
            for i in (1, 2)
        )
        if _obs.ACTIVE:
            batch = plain.poly.batch + first.batch
            for i, (ct, pt) in enumerate(pairs):
                _done(_Logical(ct.level, ct.scale * pt.scale, batch), "pmul")
                if i:
                    _done(_Logical(first.level, scale, batch), "hadd")
        return Ciphertext(c0, c1, first.level, scale)

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
        return self._galois(ct, self._element(steps))

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate the encrypted slots."""
        return self._galois(ct, 2 * self.chain.n - 1)

    def _element(self, steps: int) -> int:
        """The Galois element of a left rotation by ``steps`` slots."""
        return pow(5, steps % self.encoder.slots, 2 * self.chain.n)

    def _galois(self, ct: Ciphertext, g: int) -> Ciphertext:
        """``ct`` under ``X -> X^g`` (``g = 1`` is ``ct`` itself): its
        key products modded down, and ``c0`` in coefficient form
        permuted and added after the mod-down."""
        if g == 1:
            return ct
        (acc,) = self._switched(ct, [g], None)
        k0, k1 = _mod_down(acc, self.chain.special_moduli)
        c0 = ct.c0.to_coeff().galois(g).add(k0)
        return _done(Ciphertext(c0, k1, ct.level, ct.scale), "hrot", "rotate")

    def rotate_lifted(self, ct: Ciphertext, steps: Sequence[int]) -> list[Ciphertext]:
        """``P·rotate(ct, s)`` for each ``s`` in ``steps``, unrounded: the
        NTT-form accumulators over the key-switch basis ``M ∪ P`` that a
        rotation holds just before its mod-down, at ``ct``'s level and
        scale.  Step 0 is ``ct`` lifted by ``P`` (``scale_up``).

        Modded down, each is :meth:`rotate`'s result bit for bit; kept
        lifted, they feed :meth:`mul_encoded_sum` and
        :meth:`rotate_sum` over ``M ∪ P`` with no mod-down and no
        transform back ("double hoisting", Bossuat et al., Eurocrypt
        2021).
        """
        specials = self.chain.special_moduli
        c0, c1 = (scale_up(p, specials) for p in to_domain((ct.c0, ct.c1), NTT))
        elements = [self._element(s) for s in steps]
        switched = iter(self._switched(ct, [g for g in elements if g != 1], c0))
        out = []
        for g in elements:
            if g == 1:
                out.append(Ciphertext(c0, c1, ct.level, ct.scale))
            else:
                lifted = Ciphertext(*next(switched), ct.level, ct.scale)
                out.append(_done(lifted, "hrot", "rotate"))
        return out

    def _switched(
        self, ct: Ciphertext, elements: Sequence[int], c0: RnsPolynomial | None
    ) -> list[tuple[RnsPolynomial, RnsPolynomial]]:
        """Per Galois element ``g``, the keyswitch accumulators of
        ``c1(X^g)`` over ``M ∪ P``, in NTT form, with ``c0`` (NTT form
        over ``M ∪ P``) permuted by ``g`` and added when given.

        All from one digit decomposition: ``c1``'s digits are extended
        and transformed once, and each element permutes them in NTT
        form.  That equals decomposing the permuted ``c1`` — the exact
        centered base conversion commutes with the signed coefficient
        permutation ``X -> X^g`` — so it is bit-identical to separate
        rotations.
        """
        out = []
        for g in elements:
            ksk = self.chest.galois_key(ct.level, g)
            if not out:
                # The digit layout is the level's, the same for every g.
                ext = self._extended_digits(ct.c1, ksk)
            # take, not ext[..., perm]: that would come back strided.
            turned = np.take(ext, galois_permutation(ct.basis.n, g), axis=-1)
            init = (None if c0 is None else c0.galois(g), None)
            out.append(self._key_products([(turned, ksk)], init))
        return out

    def rotate_sum(self, terms: Iterable[tuple[int, Ciphertext]]) -> Ciphertext:
        """``Σ rotate(x, steps)`` over ``(steps, P·x)`` terms, with one
        mod-down for the whole sum, in coefficient form.

        Each term is lifted: NTT-form over ``M ∪ P``, ``P`` times a
        ciphertext at its level and scale, as :meth:`rotate_lifted`
        and :meth:`mul_encoded_sum` over its babies leave it; a term
        over any other basis is refused (``ParameterError``), and a
        lone unrotated term comes back modded down.  The
        unrotated terms and every ``galois(c0)`` go straight into the
        accumulators.  The rotated terms' ``c1`` stack as
        ``(G, *batch, |M ∪ P|, n)`` and take one ``scale_down`` to
        ``M`` (the digits a keyswitch decomposes), then one stacked
        keyswitch: one base conversion and one forward (the digit
        layout is the level's, the same for every Galois element), each
        term's digits permuted in place by its own element, and one
        multiply-accumulate per accumulator over all ``G·D`` digits
        against their keys' rows.  The sum then takes one inverse
        transform and one ``scale_down`` pair, where separate rotations
        take one each ("double hoisting", Bossuat et al., Eurocrypt
        2021).  The stack needs every term, so ``terms`` is drawn whole
        first: a lazy ``terms`` runs its own ops before the ``hrot`` and
        ``hadd`` this logs.
        """
        terms = list(terms)
        if not terms:
            raise ParameterError("rotate_sum needs at least one term")
        first = terms[0][1]
        specials = self.chain.special_moduli
        if first.basis.moduli != self.chain.moduli_at(first.level) + specials:
            raise ParameterError(
                "rotate_sum takes P-lifted terms over M ∪ P (see rotate_lifted)"
            )
        for _, ct in terms[1:]:
            check_addable(first, ct)
        elements = [self._element(steps) for steps, _ in terms]
        polys = to_domain([p for _, ct in terms for p in (ct.c0, ct.c1)], NTT)
        acc = [None, None]  # summed one term at a time
        rotated = []
        for g, c0, c1 in zip(elements, polys[::2], polys[1::2]):
            c0 = c0 if g == 1 else c0.galois(g)
            acc[0] = c0 if acc[0] is None else acc[0].add(c0)
            if g == 1:
                acc[1] = c1 if acc[1] is None else acc[1].add(c1)
            else:
                rotated.append((g, c1.mat))
        if rotated:
            ksks = [self.chest.galois_key(first.level, g) for g, _ in rotated]
            c1s = np.stack([mat for _, mat in rotated])
            c1s = scale_down(RnsPolynomial(first.basis, c1s, NTT), specials)
            ext = self._extended_digits(c1s, ksks[0])
            del c1s
            for digits, (g, _) in zip(ext, rotated):
                # In place, one term's copy at a time (take, not
                # digits[..., perm]: that would come back strided).
                perm = galois_permutation(first.basis.n, g)
                digits[...] = np.take(digits, perm, axis=-1)
            acc = self._key_products(list(zip(ext, ksks)), acc)
        for i, (g, (_, ct)) in enumerate(zip(elements, terms)):
            if g != 1:
                _done(ct, "hrot", "rotate")
            if i:
                _done(first, "hadd")
        return Ciphertext(*_mod_down(acc, specials), first.level, first.scale)

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
        """The ``(..., D, |M ∪ P|, n)`` NTT-form stack of ``d``'s digits
        (a batch's axes lead).

        Digit ``j``'s own rows *are* ``d``'s residues; the rest come
        from base conversion (the CRB operation).  One forward call
        either way: the whole stack for a coefficient-form ``d``; for an
        NTT-form one, whose own rows are spliced in as they are, only
        the converted rows, over their moduli concatenated.
        """
        full = ksk.full
        d_coeff = d.to_coeff().mat
        converted = np.concatenate([
            convert_by_table(RnsPolynomial(t.src, d_coeff[..., own, :], COEFF), t).mat
            for own, t in zip(ksk.own, ksk.tables)
        ], axis=-2)
        del d_coeff  # ext is allocated last: a stacked keyswitch's peak
        if d.domain == NTT:
            converted = forward_rows(converted, ksk.converted_moduli)
        ext = np.empty((*d.batch, ksk.digits, full.size, full.n), dtype=np.uint64)
        for j, own in enumerate(ksk.own):
            # M is a prefix of M ∪ P: same row indices.
            ext[..., j, own, :] = d.mat[..., own, :]
        # A view for one polynomial or a batch: the batch axes lead.
        stack = ext.reshape(*d.batch, -1, full.n)
        stack[..., ksk.converted_rows, :] = converted
        del converted  # not held through the forward
        if d.domain == NTT:
            return ext
        return forward_rows(ext, full.moduli, overwrite=True)

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
        caller's ``f + k`` costs no inverse transform of ``f``.
        """
        specials = ksk.special_moduli
        lifted = fold and (scale_up(f, specials) for f in fold)
        return _mod_down(Evaluator._key_products([(ext, ksk)], lifted), specials)

    @staticmethod
    def _key_products(
        switched: Sequence[tuple[np.ndarray, KeySwitchKey]],
        acc: Iterable[RnsPolynomial | None] | None = None,
    ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """``acc + Σ Σ_j ext[j] ⊙ ksk.rows[j]`` over the ``(ext, ksk)``
        pairs: keyswitches before their one mod-down.

        ``acc`` yields two NTT-form polynomials over ``M ∪ P`` (zero
        when ``None``), read one at a time, so a lazy ``acc`` builds
        each only when its accumulator is due.  One multiply-accumulate
        kernel call per accumulator, over every pair's digits against
        its key's row stack; a batch's ``(..., K, n)`` digit slices
        broadcast against the key's ``(K, n)`` rows, so one key read
        serves every member.
        """
        full = switched[0][1].full
        terms = [digit for ext, _ in switched for digit in np.moveaxis(ext, -3, 0)]
        out = tuple(
            RnsPolynomial(
                full,
                _backends.pointwise_mul_acc(
                    None if init is None else init.mat, terms,
                    [rows for _, ksk in switched for rows in ksk.stack[i]],
                    full.q_col, full.kind,
                ),
                NTT,
            )
            for i, init in zip((0, 1), acc or (None, None))
        )
        for _ in switched:
            _done(out[0], None, "keyswitch")  # one per batch member
        return out


def _mod_down(
    acc: Sequence[RnsPolynomial], specials: Sequence[int]
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """``round(acc / P)``: NTT-form accumulators over ``M ∪ P`` to
    coefficient form over ``M``, both in one inverse transform that
    also applies the mod-down's per-row constants."""
    return tuple(scale_down_all(acc, specials))


class _Logical(NamedTuple):
    """What the op log and the scale check read of a result that is
    never built on its own (one term of :meth:`Evaluator.mul_encoded_sum`)."""

    level: int
    scale: Fraction
    batch: tuple[int, ...] = ()


def _done(out, kind: str | None, name: str | None = None):
    """Every op's return path, and the evaluator's one test of the
    instrumentation switch: ``out``, after one seam call per batch
    member when a listener is attached (``op.<name>`` counted, ``kind``
    logged), so a batch of ``B`` reads as the ``B`` ops it replaces."""
    if _obs.ACTIVE:
        for _ in range(math.prod(out.batch)):
            _obs.op(out, kind, name)
    return out


def _is_real_scalar(values) -> bool:
    """Whether ``values`` is one real number (not an array, not complex)."""
    return np.isscalar(values) and not isinstance(values, (complex, np.complexfloating))

