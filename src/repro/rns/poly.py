"""RNS polynomials: the residue matrix CKKS computes on.

An :class:`RnsPolynomial` is an element of ``Z_Q[X]/(X^n + 1)`` stored as
one residue row per basis modulus.  Rows live either in coefficient form
or in NTT (evaluation) form; the two accelerator-relevant operations that
force coefficient form are base conversion and Galois automorphisms, and
the polynomial tracks its domain so callers cannot silently mix them.

Arithmetic runs matrix-at-a-time: rows whose moduli share a uint64
backend (see :meth:`RnsBasis.backend_groups`) are stacked into one
``(k, n)`` matrix and reduced against a ``(k, 1)`` modulus column in a
single vectorized modmath call; domain conversions ride the batched
multi-prime NTT (:func:`repro.nt.ntt.forward_rows`).  Big-int object rows
(moduli ≥ 2^61) keep the per-row path, which is exact at any width.

Polynomials are value objects: every operation returns a new polynomial.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

import repro.backends as _backends
from repro.analysis import sanitize as _sanitize
from repro.errors import ParameterError, ScaleMismatchError
from repro.nt import modmath
from repro.nt import ntt as ntt_kernels
from repro.nt.crt import centered_vector, crt_reconstruct_vector
from repro.rns.basis import RnsBasis

COEFF = "coeff"
NTT = "ntt"


class RnsPolynomial:
    """A polynomial over an RNS basis, in coefficient or NTT domain."""

    __slots__ = ("basis", "rows", "domain", "_mats")

    def __init__(self, basis: RnsBasis, rows: Sequence[np.ndarray], domain: str):
        if len(rows) != basis.size:
            raise ParameterError(
                f"expected {basis.size} residue rows, got {len(rows)}"
            )
        if domain not in (COEFF, NTT):
            raise ParameterError(f"unknown domain {domain!r}")
        self.basis = basis
        self.rows = list(rows)
        self.domain = domain
        self._mats: dict | None = None
        if _sanitize.ACTIVE:
            _sanitize.check_poly(self)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, basis: RnsBasis, domain: str = COEFF) -> "RnsPolynomial":
        rows = [modmath.zeros(basis.n, q) for q in basis.moduli]
        return cls(basis, rows, domain)

    @classmethod
    def from_int_coeffs(
        cls, basis: RnsBasis, coeffs: Sequence[int]
    ) -> "RnsPolynomial":
        """Reduce big-integer (possibly negative) coefficients into RNS."""
        if len(coeffs) != basis.n:
            raise ParameterError(f"expected {basis.n} coefficients, got {len(coeffs)}")
        rows = []
        for q in basis.moduli:
            rows.append(modmath.as_mod_array([c % q for c in coeffs], q))
        return cls(basis, rows, COEFF)

    @classmethod
    def from_rows(
        cls, basis: RnsBasis, rows: Sequence[np.ndarray], domain: str
    ) -> "RnsPolynomial":
        return cls(basis, [r.copy() for r in rows], domain)

    # ------------------------------------------------------------------
    # Vectorization plumbing.  The polynomial's residue rows of each
    # uint64 backend kind stack into one ``(k, n)`` matrix, built lazily
    # and cached (value semantics make the cache safe: nothing mutates a
    # polynomial after construction).  Results of matrix kernels stay in
    # matrix form, with ``rows`` exposed as views, so chained operations
    # never pay the stacking copy again.  Big-int rows stay per-row.
    # ------------------------------------------------------------------
    def group_matrices(self) -> dict:
        """Stacked residues per backend kind (see ``RnsBasis.backend_groups``).

        Maps ``"narrow"``/``"wide"`` to a ``(k, n)`` uint64 matrix whose
        row order follows the group's indices, and ``"big"`` to a list of
        object rows.  Cached on first use.
        """
        if self._mats is None:
            mats = {}
            for kind, idx, _ in self.basis.backend_groups():
                if kind == "big":
                    mats[kind] = [self.rows[i] for i in idx]
                else:
                    mats[kind] = np.stack([self.rows[i] for i in idx])
            self._mats = mats
        return self._mats

    @classmethod
    def _from_group_mats(
        cls, basis: RnsBasis, mats: dict, domain: str
    ) -> "RnsPolynomial":
        rows: list[np.ndarray | None] = [None] * basis.size
        for kind, idx, _ in basis.backend_groups():
            group = mats[kind]
            for j, i in enumerate(idx):
                rows[i] = group[j]
        poly = cls(basis, rows, domain)
        poly._mats = mats
        return poly

    def _map_mats(
        self,
        fn: Callable,
        other: "RnsPolynomial | None" = None,
        domain: str | None = None,
    ) -> "RnsPolynomial":
        mats = self.group_matrices()
        other_mats = other.group_matrices() if other is not None else None
        out = {}
        for kind, idx, q_col in self.basis.backend_groups():
            mat = mats[kind]
            if kind == "big":
                if other is None:
                    out[kind] = [
                        fn(row, self.basis.moduli[i]) for row, i in zip(mat, idx)
                    ]
                else:
                    out[kind] = [
                        fn(row, o_row, self.basis.moduli[i])
                        for row, o_row, i in zip(mat, other_mats[kind], idx)
                    ]
            else:
                out[kind] = (
                    fn(mat, q_col)
                    if other is None
                    else fn(mat, other_mats[kind], q_col)
                )
        return RnsPolynomial._from_group_mats(
            self.basis, out, self.domain if domain is None else domain
        )

    # ------------------------------------------------------------------
    # Domain conversions
    # ------------------------------------------------------------------
    def _transformed(self, forward: bool) -> "RnsPolynomial":
        basis = self.basis
        mats = self.group_matrices()
        out = {}
        for kind, idx, _ in basis.backend_groups():
            if kind == "big":
                out[kind] = [
                    basis.ntt(i).forward(row) if forward else basis.ntt(i).inverse(row)
                    for row, i in zip(mats[kind], idx)
                ]
            else:
                moduli = tuple(basis.moduli[i] for i in idx)
                out[kind] = (
                    ntt_kernels.forward_rows(mats[kind], moduli)
                    if forward
                    else ntt_kernels.inverse_rows(mats[kind], moduli)
                )
        return RnsPolynomial._from_group_mats(
            basis, out, NTT if forward else COEFF
        )

    def to_ntt(self) -> "RnsPolynomial":
        if self.domain == NTT:
            return self
        return self._transformed(forward=True)

    def to_coeff(self) -> "RnsPolynomial":
        if self.domain == COEFF:
            return self
        return self._transformed(forward=False)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ScaleMismatchError(
                f"basis mismatch: {self.basis} vs {other.basis}"
            )
        if self.domain != other.domain:
            raise ScaleMismatchError(
                f"domain mismatch: {self.domain} vs {other.domain}"
            )

    def add(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        return self._map_mats(modmath.mod_add, other)

    def sub(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        return self._map_mats(modmath.mod_sub, other)

    def neg(self) -> "RnsPolynomial":
        return self._map_mats(modmath.mod_neg)

    def pointwise_mul(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Hadamard product; in NTT domain this is polynomial multiplication.

        The uint64 groups dispatch through the kernel-backend registry;
        big-int rows stay on the exact per-row modmath path.
        """
        self._check_compatible(other)
        if self.domain != NTT:
            raise ParameterError("pointwise_mul requires NTT domain")
        mats = self.group_matrices()
        other_mats = other.group_matrices()
        out = {}
        for kind, idx, q_col in self.basis.backend_groups():
            if kind == "big":
                out[kind] = [
                    modmath.mod_mul(row, o_row, self.basis.moduli[i])
                    for row, o_row, i in zip(
                        mats[kind], other_mats[kind], idx
                    )
                ]
            else:
                out[kind] = _backends.pointwise_mul(
                    mats[kind], other_mats[kind], q_col, kind
                )
        return RnsPolynomial._from_group_mats(self.basis, out, NTT)

    def pointwise_mul_acc(
        self, a: "RnsPolynomial", b: "RnsPolynomial"
    ) -> "RnsPolynomial":
        """``self + a · b`` fused — the keyswitch inner-loop accumulate.

        One backend dispatch per uint64 group instead of a multiply
        followed by an add (two full passes over the residue matrix).
        """
        self._check_compatible(a)
        a._check_compatible(b)
        if self.domain != NTT:
            raise ParameterError("pointwise_mul_acc requires NTT domain")
        mats = self.group_matrices()
        a_mats = a.group_matrices()
        b_mats = b.group_matrices()
        out = {}
        for kind, idx, q_col in self.basis.backend_groups():
            if kind == "big":
                out[kind] = [
                    modmath.mod_add(
                        acc_row,
                        modmath.mod_mul(ar, br, self.basis.moduli[i]),
                        self.basis.moduli[i],
                    )
                    for acc_row, ar, br, i in zip(
                        mats[kind], a_mats[kind], b_mats[kind], idx
                    )
                ]
            else:
                out[kind] = _backends.pointwise_mul_acc(
                    mats[kind], a_mats[kind], b_mats[kind], q_col, kind
                )
        return RnsPolynomial._from_group_mats(self.basis, out, NTT)

    def poly_mul(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Negacyclic polynomial product, returned in the callers' domain."""
        product = self.to_ntt().pointwise_mul(other.to_ntt())
        return product if self.domain == NTT else product.to_coeff()

    def scalar_mul(self, k: int) -> "RnsPolynomial":
        """Multiply by an integer constant (the ``mulConst`` of the paper)."""
        return self.rowwise_scalar_mul([k] * self.basis.size)

    def rowwise_scalar_mul(self, scalars: Sequence[int]) -> "RnsPolynomial":
        """Multiply row ``i`` by its own integer constant ``scalars[i]``.

        The per-row constants reduce to a ``(k, 1)`` column so each uint64
        backend group is one broadcast multiply (a Shoup multiply by the
        column and its companion on the wide path); base conversion and
        rescale use this for their per-modulus CRT weights.
        """
        if len(scalars) != self.basis.size:
            raise ParameterError(
                f"expected {self.basis.size} scalars, got {len(scalars)}"
            )
        mats = self.group_matrices()
        out = {}
        for kind, idx, q_col in self.basis.backend_groups():
            if kind == "big":
                out[kind] = [
                    modmath.mod_scalar_mul(row, scalars[i], self.basis.moduli[i])
                    for row, i in zip(mats[kind], idx)
                ]
            else:
                k_col = np.array(
                    [scalars[i] % self.basis.moduli[i] for i in idx],
                    dtype=np.uint64,
                ).reshape(-1, 1)
                if kind == "narrow":
                    out[kind] = modmath.mod_mul(mats[kind], k_col, q_col)
                else:
                    k_shoup = modmath.shoup_companion(k_col, q_col)
                    out[kind] = modmath.mod_mul_shoup(
                        mats[kind], k_col, k_shoup, q_col
                    )
        return RnsPolynomial._from_group_mats(self.basis, out, self.domain)

    # ------------------------------------------------------------------
    # Automorphisms (homomorphic rotations)
    # ------------------------------------------------------------------
    def galois(self, g: int) -> "RnsPolynomial":
        """Apply the automorphism ``X -> X^g`` (``g`` odd, mod ``2n``).

        Must be applied in coefficient form; the NTT-domain equivalent is
        the accelerator's automorphism FU (a lane permutation), which the
        performance model accounts separately.
        """
        if self.domain != COEFF:
            raise ParameterError("galois requires coefficient domain")
        n = self.basis.n
        two_n = 2 * n
        g %= two_n
        if g % 2 == 0:
            raise ParameterError(f"Galois element must be odd, got {g}")
        # target index and sign for each source coefficient
        t = np.arange(n, dtype=np.int64) * g % two_n
        idx = t % n
        flip = t >= n

        def permute(mat, q):
            negated = modmath.mod_neg(mat, q)
            out = np.empty_like(mat)
            out[..., idx] = np.where(flip, negated, mat)
            return out

        return self._map_mats(permute, domain=COEFF)

    # ------------------------------------------------------------------
    # Basis surgery
    # ------------------------------------------------------------------
    def restricted(self, moduli: Iterable[int]) -> "RnsPolynomial":
        """Keep only the rows for ``moduli`` (in the given order)."""
        moduli = tuple(moduli)
        rows = [self.rows[self.basis.index_of(q)] for q in moduli]
        return RnsPolynomial(RnsBasis(self.basis.n, moduli), rows, self.domain)

    def row(self, q: int) -> np.ndarray:
        return self.rows[self.basis.index_of(q)]

    # ------------------------------------------------------------------
    # Exact reconstruction (test oracle / decode path)
    # ------------------------------------------------------------------
    def to_int_coeffs(self, signed: bool = True) -> list[int]:
        """CRT-reconstructed big-integer coefficients.

        With ``signed=True`` (default) coefficients are centered
        representatives in ``(-Q/2, Q/2]``, the form decryption needs.
        """
        poly = self.to_coeff()
        values = crt_reconstruct_vector(poly.rows, poly.basis.moduli)
        if signed:
            return centered_vector(values, poly.basis.product)
        return values

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, [r.copy() for r in self.rows], self.domain)

    def __repr__(self) -> str:
        return (
            f"RnsPolynomial(n={self.basis.n}, R={self.basis.size}, "
            f"domain={self.domain!r})"
        )
