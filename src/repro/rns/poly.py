"""RNS polynomials: the residue matrix CKKS computes on.

An :class:`RnsPolynomial` is an element of ``Z_Q[X]/(X^n + 1)`` stored as
one ``(R, n)`` residue matrix, row ``i`` reduced modulo ``basis.moduli[i]``
— the paper's picture of a ciphertext (Sec. 3.1), on which level
management is matrix surgery.  The matrix lives either in coefficient
form or in NTT (evaluation) form; the two accelerator-relevant operations
that force coefficient form are base conversion and Galois automorphisms,
and the polynomial tracks its domain so callers cannot silently mix them.

The matrix may carry leading *batch* axes, ``(..., R, n)``: a batch of
polynomials over one basis in one domain, on which every operation runs
in one call.  Rows stay on axis -2 and coefficients on axis -1, so the
``(R, 1)`` modulus column broadcasts over the rest.

The matrix is the only storage, and it is uint64: every modulus is
below 2^61.  The *basis* kind (:attr:`RnsBasis.kind`, ``narrow`` or
``wide``) picks the arithmetic.  Every operation is one vectorized call
over the whole matrix against the basis's ``(R, 1)`` modulus column —
:mod:`repro.nt.modmath` for add/sub/neg, :mod:`repro.backends` for
the Hadamard products, the batched NTT for domain changes — so a basis
that mixes widths runs every row on its widest member's arithmetic.

Polynomials are value objects: every operation returns a new polynomial.
"""

from __future__ import annotations

from functools import partial
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
        """Wrap ``residues`` — a ``(..., R, n)`` matrix, or ``R`` rows to
        stack.

        Shape and dtype are checked here, once, for every polynomial:
        the matrix must be a uint64 array ending in ``(basis.size,
        basis.n)``.
        """
        if domain not in (COEFF, NTT):
            raise ParameterError(f"unknown domain {domain!r}")
        if not isinstance(residues, np.ndarray):
            residues = _stack_rows(basis, residues)
        if residues.shape[-2:] != (basis.size, basis.n) or residues.ndim < 2:
            raise ParameterError(
                f"expected a ({basis.size}, {basis.n}) residue matrix or a "
                f"batch of them, got shape {residues.shape}"
            )
        if residues.dtype != np.uint64:
            raise ParameterError(
                f"a residue matrix stores uint64 residues, got {residues.dtype}"
            )
        self.basis = basis
        self.mat = residues
        self.domain = domain
        if _obs.ACTIVE:
            _obs.check_residues(residues, basis.moduli, "RnsPolynomial")

    @property
    def batch(self) -> tuple[int, ...]:
        """The leading batch shape: ``()`` for one polynomial."""
        return self.mat.shape[:-2]

    @property
    def rows(self) -> list[np.ndarray]:
        """The residue rows, as views into :attr:`mat` (basis order)."""
        return list(np.moveaxis(self.mat, -2, 0))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_int_coeffs(
        cls, basis: RnsBasis, coeffs: Sequence[int] | Sequence[Sequence[int]]
    ) -> "RnsPolynomial":
        """Reduce big-integer (possibly negative) coefficients into RNS.

        ``coeffs`` is one polynomial's ``n`` coefficients, or a nested
        batch of them, whose axes lead the result's (``(..., R, n)``).
        Coefficients that all fit int64 reduce in one broadcast against
        the modulus column (every modulus fits int64 too, and numpy's
        ``%`` is non-negative for a positive divisor); wider ones reduce
        as Python ints.
        """
        row = _int64_row(coeffs)
        values = np.asarray(coeffs, dtype=object) if row is None else row
        if values.shape[-1:] != (basis.n,):
            raise ParameterError(
                f"expected {basis.n} coefficients, got {values.shape}"
            )
        if row is not None:
            # Every remainder is in [0, q): its int64 bits are the uint64.
            mat = (row[..., None, :] % basis.q_col.astype(np.int64)).view(np.uint64)
        else:
            mat = np.array(
                [
                    [[c % q for c in poly] for q in basis.moduli]
                    for poly in values.reshape(-1, basis.n)
                ],
                dtype=np.uint64,
            ).reshape(*values.shape[:-1], basis.size, basis.n)
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
        companion's limbs on a wide basis).  Base conversion and rescale pass
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
        return self._like(modmath.mod_mul(self.mat, k_col, basis.q_col, basis.kind))

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
        mat[..., :1] = modmath.mod_add(mat[..., :1], k_col, basis.q_col)
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
            # take, not mat[..., perm]: that would come back column-major.
            perm = ntt_kernels.galois_permutation(n, g)
            return self._like(np.take(mat, perm, axis=-1))
        # target index and sign for each source coefficient
        t = np.arange(n, dtype=np.int64) * g % (2 * n)
        out = np.empty_like(mat)
        out[..., t % n] = np.where(t >= n, modmath.mod_neg(mat, self.basis.q_col), mat)
        return self._like(out)

    # ------------------------------------------------------------------
    # Basis surgery
    # ------------------------------------------------------------------
    def restricted(self, moduli: Iterable[int]) -> "RnsPolynomial":
        """Keep only the rows for ``moduli`` (in the given order)."""
        basis, rows = restriction(self.basis, tuple(moduli))
        return RnsPolynomial(basis, self.mat[..., rows, :], self.domain)

    def row(self, q: int) -> np.ndarray:
        return self.mat[..., self.basis.index_of(q), :]

    # ------------------------------------------------------------------
    # Exact reconstruction (test oracle / decode path)
    # ------------------------------------------------------------------
    def to_int_coeffs(self) -> list[int]:
        """CRT-reconstructed big-integer coefficients, as centered
        representatives in ``(-Q/2, Q/2]`` (the form decryption needs).
        One polynomial's only: a batch raises.
        """
        if self.batch:
            raise ParameterError(
                f"to_int_coeffs reads one polynomial, not a {self.batch} batch"
            )
        poly = self.to_coeff()
        values = crt_reconstruct_vector(poly.mat, poly.basis.moduli)
        return centered_vector(values, poly.basis.product)

    def copy(self) -> "RnsPolynomial":
        return self._like(self.mat.copy())

    def __repr__(self) -> str:
        batch = f", batch={self.batch}" if self.batch else ""
        return (
            f"RnsPolynomial(n={self.basis.n}, R={self.basis.size}, "
            f"domain={self.domain!r}{batch})"
        )


def to_domain(
    polys: Sequence[RnsPolynomial],
    domain: str,
    scale: tuple[int, ...] | None = None,
) -> list[RnsPolynomial]:
    """``polys`` in ``domain``, siblings transformed together.

    Those already there pass through; the rest go through the transform
    as ``(m, k, n)`` stacks per basis, as many matrices to a stack as it
    runs in one pass (:meth:`~repro.nt.ntt.NttRowsContext.parts`) — one
    stage loop for all of them, which on a small ring is most of what a
    transform costs.  A batch of ``B`` polynomials counts ``B`` matrices
    and is never split between stacks.  ``scale`` (to coefficient form
    only) multiplies row ``i`` of every polynomial that moves by
    ``scale[i]``, riding the inverse transform
    (:func:`repro.nt.ntt.inverse_rows`).
    """
    if domain == NTT:
        if scale is not None:
            raise ParameterError("only the inverse transform takes a scale")
        kernel = ntt_kernels.forward_rows
    else:
        kernel = partial(ntt_kernels.inverse_rows, scale=scale)
    out = list(polys)
    movers: dict[RnsBasis, list[int]] = {}
    for i, poly in enumerate(out):
        if poly.domain != domain:
            movers.setdefault(poly.basis, []).append(i)
    for basis, where in movers.items():
        # Every mover as an (m, k, n) stack: a view, (1, k, n) unbatched.
        flat = [out[i].mat.reshape(-1, basis.size, basis.n) for i in where]
        sizes = [len(mats) for mats in flat]
        parts = ntt_kernels.ntt_rows_context(basis.moduli, basis.n).parts(sum(sizes))
        for part in _runs(sizes, -(-sum(sizes) // parts)):
            mats = [flat[j] for j in part]
            moved = kernel(
                np.concatenate(mats) if len(mats) > 1 else mats[0], basis.moduli
            )
            lo = 0
            for j in part:
                i, size = where[j], len(flat[j])
                mat = moved[lo : lo + size].reshape(out[i].mat.shape)
                out[i] = RnsPolynomial(basis, mat, domain)
                lo += size
    return out


def _runs(sizes: Sequence[int], width: int) -> list[list[int]]:
    """Consecutive runs of indices into ``sizes`` that sum to at most
    ``width`` each (an index whose size passes ``width`` runs alone)."""
    runs: list[list[int]] = [[]]
    held = 0
    for j, size in enumerate(sizes):
        if runs[-1] and held + size > width:
            runs.append([])
            held = 0
        runs[-1].append(j)
        held += size
    return runs


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
        if dtype != np.uint64:
            raise ParameterError(
                f"residue row {i} is {dtype}; residue rows are uint64"
            )
    return np.stack(rows)
