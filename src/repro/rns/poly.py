"""RNS polynomials: the residue matrix CKKS computes on.

An :class:`RnsPolynomial` is an element of ``Z_Q[X]/(X^n + 1)`` stored as
one ``(R, n)`` residue matrix, row ``i`` reduced modulo ``basis.moduli[i]``
— the paper's picture of a ciphertext (Sec. 3.1), on which level
management is matrix surgery.  The matrix lives either in coefficient
form or in NTT (evaluation) form; the two accelerator-relevant operations
that force coefficient form are base conversion and Galois automorphisms,
and the polynomial tracks its domain so callers cannot silently mix them.

The matrix is the only storage.  Its dtype follows the *basis* kind
(:attr:`RnsBasis.kind`): uint64 when every modulus is below 2^61, object
(exact Python ints) otherwise.  Every operation is one vectorized call
over the whole matrix against the basis's ``(R, 1)`` modulus column —
:mod:`repro.nt.modmath` for add/sub/neg, :mod:`repro.backends` for
the Hadamard products, the batched NTT for domain changes — so a basis
that mixes widths runs every row on its widest member's arithmetic.

Polynomials are value objects: every operation returns a new polynomial.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

import repro.backends as _backends
from repro.errors import ParameterError, ScaleMismatchError
from repro.nt import modmath
from repro.nt import ntt as ntt_kernels
from repro.nt.crt import centered_vector, crt_reconstruct_vector
from repro.obs import core as _obs
from repro.rns.basis import RnsBasis, ScalarColumn, restriction

COEFF = "coeff"
NTT = "ntt"


class RnsPolynomial:
    """A polynomial over an RNS basis, in coefficient or NTT domain."""

    __slots__ = ("basis", "mat", "domain")

    def __init__(
        self,
        basis: RnsBasis,
        residues: np.ndarray | Sequence[np.ndarray],
        domain: str,
    ):
        """Wrap ``residues`` — a ``(R, n)`` matrix, or ``R`` rows to stack.

        Shape and dtype are checked here, once, for every polynomial:
        the matrix must be ``(basis.size, basis.n)`` in ``basis.dtype``.
        """
        if domain not in (COEFF, NTT):
            raise ParameterError(f"unknown domain {domain!r}")
        if not isinstance(residues, np.ndarray):
            residues = _stack_rows(basis, residues)
        if residues.shape != (basis.size, basis.n):
            raise ParameterError(
                f"expected a ({basis.size}, {basis.n}) residue matrix, "
                f"got shape {residues.shape}"
            )
        if residues.dtype != basis.dtype:
            raise ParameterError(
                f"a {basis.kind} basis stores {np.dtype(basis.dtype).name} "
                f"residues, got {residues.dtype}"
            )
        self.basis = basis
        self.mat = residues
        self.domain = domain
        if _obs.ACTIVE:
            _obs.check_residues(residues, basis.moduli, "RnsPolynomial")

    @property
    def rows(self) -> list[np.ndarray]:
        """The residue rows, as views into :attr:`mat` (basis order)."""
        return list(self.mat)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, basis: RnsBasis, domain: str = COEFF) -> "RnsPolynomial":
        return cls(basis, np.zeros((basis.size, basis.n), dtype=basis.dtype), domain)

    @classmethod
    def from_int_coeffs(
        cls, basis: RnsBasis, coeffs: Sequence[int]
    ) -> "RnsPolynomial":
        """Reduce big-integer (possibly negative) coefficients into RNS.

        Coefficients that all fit int64 reduce in one broadcast against
        the modulus column (every modulus of a non-``big`` basis fits
        int64 too, and numpy's ``%`` is non-negative for a positive
        divisor); wider ones, and ``big`` bases, reduce as Python ints.
        """
        if len(coeffs) != basis.n:
            raise ParameterError(f"expected {basis.n} coefficients, got {len(coeffs)}")
        row = None if basis.kind == "big" else _int64_row(coeffs)
        if row is not None:
            mat = (row % basis.q_col.astype(np.int64)).astype(np.uint64)
        else:
            mat = np.array(
                [[c % q for c in coeffs] for q in basis.moduli], dtype=basis.dtype
            )
        return cls(basis, mat, COEFF)

    def _like(self, mat: np.ndarray, domain: str | None = None) -> "RnsPolynomial":
        return RnsPolynomial(
            self.basis, mat, self.domain if domain is None else domain
        )

    # ------------------------------------------------------------------
    # Domain conversions
    # ------------------------------------------------------------------
    def to_ntt(self) -> "RnsPolynomial":
        if self.domain == NTT:
            return self
        return self._like(
            ntt_kernels.forward_rows(self.mat, self.basis.moduli), NTT
        )

    def to_coeff(self) -> "RnsPolynomial":
        if self.domain == COEFF:
            return self
        return self._like(
            ntt_kernels.inverse_rows(self.mat, self.basis.moduli), COEFF
        )

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
        return self._like(modmath.mod_add(self.mat, other.mat, self.basis.q_col))

    def sub(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        return self._like(modmath.mod_sub(self.mat, other.mat, self.basis.q_col))

    def neg(self) -> "RnsPolynomial":
        return self._like(modmath.mod_neg(self.mat, self.basis.q_col))

    def pointwise_mul(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Hadamard product; in NTT domain this is polynomial multiplication.

        One :func:`repro.backends.pointwise_mul` call on the basis kind.
        """
        self._check_compatible(other)
        if self.domain != NTT:
            raise ParameterError("pointwise_mul requires NTT domain")
        basis = self.basis
        return self._like(
            _backends.pointwise_mul(self.mat, other.mat, basis.q_col, basis.kind)
        )

    def pointwise_mul_acc(
        self, a: "RnsPolynomial", b: "RnsPolynomial"
    ) -> "RnsPolynomial":
        """``self + a · b`` fused — the keyswitch inner-loop accumulate.

        One kernel call instead of a multiply followed by an add
        (two full passes over the residue matrix).
        """
        self._check_compatible(a)
        a._check_compatible(b)
        if self.domain != NTT:
            raise ParameterError("pointwise_mul_acc requires NTT domain")
        basis = self.basis
        return self._like(
            _backends.pointwise_mul_acc(
                self.mat, a.mat, b.mat, basis.q_col, basis.kind
            )
        )

    def poly_mul(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Negacyclic polynomial product, returned in the callers' domain."""
        product = self.to_ntt().pointwise_mul(other.to_ntt())
        return product if self.domain == NTT else product.to_coeff()

    def scalar_mul(self, k: int) -> "RnsPolynomial":
        """Multiply by an integer constant (the ``mulConst`` of the paper)."""
        return self.rowwise_scalar_mul([k] * self.basis.size)

    def rowwise_scalar_mul(
        self, scalars: Sequence[int] | ScalarColumn
    ) -> "RnsPolynomial":
        """Multiply row ``i`` by its own integer constant ``scalars[i]``.

        The per-row constants reduce to an ``(R, 1)`` column, so this is
        one broadcast multiply (a Shoup multiply by the column and its
        companion on a wide basis).  Base conversion and rescale pass
        their per-modulus CRT weights as a ready
        :class:`~repro.rns.basis.ScalarColumn` from the cached
        conversion table, skipping the per-call reduction.
        """
        basis = self.basis
        if not isinstance(scalars, ScalarColumn):
            scalars = basis.scalar_column(scalars)
        k_col, k_shoup = scalars
        if k_shoup is not None:
            return self._like(
                modmath.mod_mul_shoup(self.mat, k_col, k_shoup, basis.q_col)
            )
        return self._like(modmath.mod_mul(self.mat, k_col, basis.q_col))

    def add_constant(self, k: int) -> "RnsPolynomial":
        """Add the integer constant ``k`` (the polynomial ``k · X^0``).

        In coefficient form only coefficient 0 changes; a constant
        polynomial evaluates to ``k`` everywhere, so in NTT form ``k``
        is added to every slot.
        """
        basis = self.basis
        k_col = basis.column([k % q for q in basis.moduli])
        if self.domain == NTT:
            return self._like(modmath.mod_add(self.mat, k_col, basis.q_col))
        mat = self.mat.copy()
        mat[:, :1] = modmath.mod_add(mat[:, :1], k_col, basis.q_col)
        return self._like(mat)

    # ------------------------------------------------------------------
    # Automorphisms (homomorphic rotations)
    # ------------------------------------------------------------------
    def galois(self, g: int) -> "RnsPolynomial":
        """Apply the automorphism ``X -> X^g`` (``g`` odd, mod ``2n``).

        In coefficient form a signed permutation of the coefficients; in
        NTT form a plain permutation of the slots
        (:func:`repro.nt.ntt.galois_permutation`) — the accelerator's
        automorphism FU, which the performance model accounts separately.
        """
        n = self.basis.n
        g %= 2 * n
        if g % 2 == 0:
            raise ParameterError(f"Galois element must be odd, got {g}")
        mat = self.mat
        if self.domain == NTT:
            # take, not mat[:, perm]: that would come back column-major.
            return self._like(np.take(mat, ntt_kernels.galois_permutation(n, g), axis=1))
        # target index and sign for each source coefficient
        t = np.arange(n, dtype=np.int64) * g % (2 * n)
        out = np.empty_like(mat)
        out[:, t % n] = np.where(t >= n, modmath.mod_neg(mat, self.basis.q_col), mat)
        return self._like(out)

    # ------------------------------------------------------------------
    # Basis surgery
    # ------------------------------------------------------------------
    def restricted(self, moduli: Iterable[int]) -> "RnsPolynomial":
        """Keep only the rows for ``moduli`` (in the given order)."""
        basis, rows = restriction(self.basis, tuple(moduli))
        mat = self.mat[rows]
        # Shedding the widest rows can narrow the kind, and the dtype
        # with it; for the same dtype this is the matrix itself.
        return RnsPolynomial(basis, mat.astype(basis.dtype, copy=False), self.domain)

    def row(self, q: int) -> np.ndarray:
        return self.mat[self.basis.index_of(q)]

    # ------------------------------------------------------------------
    # Exact reconstruction (test oracle / decode path)
    # ------------------------------------------------------------------
    def to_int_coeffs(self, signed: bool = True) -> list[int]:
        """CRT-reconstructed big-integer coefficients.

        With ``signed=True`` (default) coefficients are centered
        representatives in ``(-Q/2, Q/2]``, the form decryption needs.
        """
        poly = self.to_coeff()
        values = crt_reconstruct_vector(poly.mat, poly.basis.moduli)
        if signed:
            return centered_vector(values, poly.basis.product)
        return values

    def copy(self) -> "RnsPolynomial":
        return self._like(self.mat.copy())

    def __repr__(self) -> str:
        return (
            f"RnsPolynomial(n={self.basis.n}, R={self.basis.size}, "
            f"domain={self.domain!r})"
        )


def to_domain(polys: Sequence[RnsPolynomial], domain: str) -> list[RnsPolynomial]:
    """``polys`` in ``domain``, siblings transformed together.

    Those already there pass through; the rest go through the transform
    as ``(m, k, n)`` stacks per basis, as many to a stack as it runs in
    one pass (:meth:`~repro.nt.ntt.NttRowsContext.parts`) — one stage
    loop for all of them, which on a small ring is most of what a
    transform costs.
    """
    kernel = ntt_kernels.forward_rows if domain == NTT else ntt_kernels.inverse_rows
    out = list(polys)
    movers: dict[RnsBasis, list[int]] = {}
    for i, poly in enumerate(out):
        if poly.domain != domain:
            movers.setdefault(poly.basis, []).append(i)
    for basis, where in movers.items():
        parts = ntt_kernels.ntt_rows_context(basis.moduli, basis.n).parts(len(where))
        width = -(-len(where) // parts)
        for part in (where[lo : lo + width] for lo in range(0, len(where), width)):
            mats = [out[i].mat for i in part]
            stack = np.stack(mats) if len(mats) > 1 else mats[0][None]
            for i, mat in zip(part, kernel(stack, basis.moduli)):
                out[i] = RnsPolynomial(basis, mat, domain)
    return out


def _int64_row(coeffs: Sequence[int]) -> np.ndarray | None:
    """``coeffs`` as an int64 vector, or ``None`` when one does not fit."""
    if isinstance(coeffs, np.ndarray) and coeffs.dtype.kind == "u":
        return None  # a uint64 array would wrap silently, not raise
    try:
        return np.array(coeffs, dtype=np.int64)
    except OverflowError:
        return None


def _stack_rows(basis: RnsBasis, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Stack ``R`` residue rows into the matrix, rejecting misfits by name.

    ``np.stack`` on its own fails a ragged list with a bare
    ``ValueError`` and silently promotes a stray dtype.
    """
    rows = list(rows)
    if len(rows) != basis.size:
        raise ParameterError(
            f"expected {basis.size} residue rows, got {len(rows)}"
        )
    for i, row in enumerate(rows):
        if np.shape(row) != (basis.n,):
            raise ParameterError(
                f"residue row {i} has shape {np.shape(row)}, "
                f"expected ({basis.n},)"
            )
        dtype = getattr(row, "dtype", type(row).__name__)
        if dtype != basis.dtype:
            raise ParameterError(
                f"residue row {i} is {dtype}; a {basis.kind} basis stores "
                f"{np.dtype(basis.dtype).name} residues"
            )
    return np.stack(rows)
