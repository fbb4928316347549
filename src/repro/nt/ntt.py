"""Negacyclic number-theoretic transform over ``Z_q[X]/(X^N + 1)``.

This is the workhorse of every polynomial multiplication in CKKS and the
unit the accelerators dedicate their largest functional units to (the NTT
FUs of CraterLake, Fig. 9).  We implement the standard fused-twist
iterative transforms (Longa–Naehrig): Cooley–Tukey decimation-in-time for
the forward transform and Gentleman–Sande decimation-in-frequency for the
inverse, with powers of the primitive ``2N``-th root ``ψ`` folded into the
twiddle tables so no separate pre/post twist pass is needed.

The butterflies are *stage-vectorized* and *batched across primes*: one
context (:class:`NttRowsContext`) transforms a whole ``(k, n)`` residue
matrix — one row per RNS prime — and each of the ``log2 n`` stages is a
constant number of numpy calls.  The working matrix is viewed as a
``(k, blocks, 2, t)`` tensor, the stage's twiddles broadcast as a
``(k, blocks, 1)`` slice of the stacked ``(k, n)`` twiddle table, and all
blocks of all rows update at once — there is no Python-level loop over
butterfly blocks or over primes.  Each direction's stage loop is written
exactly once; a single prime is the ``k = 1`` context
(:func:`ntt_context`), and the width of the arithmetic (narrow uint64
products, wide Shoup multiplies, big Python ints) is the stack's widest
modulus's, known only to ``_twiddle_mul``.

Contexts are cached per moduli tuple and assembled from per-prime tables
cached per ``(q, n)`` — each direction's stacked table on that
direction's first transform, so a context that only runs forward holds
half the tables; they are the software analogue of the accelerator's
precomputed twiddle ROMs.  Twiddles are constants, so the
wide path multiplies by them with Shoup's method: each table has a
companion ``floor(w * 2^64 / q)`` table
(:func:`repro.nt.modmath.shoup_companion`), built once per cached
context on first use and read by every kernel backend.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

import repro.backends as _backends
from repro.analysis import sanitize as _sanitize
from repro.errors import ParameterError
from repro.nt import modmath
from repro.nt.primes import is_ntt_friendly
from repro.obs import core as _obs

#: Running count of vectorized stage-kernel invocations.  Each entry is
#: bumped exactly once per butterfly *stage* (never per block); the guard
#: tests use it to prove the O(n)-per-stage Python loop has not crept back.
STAGE_KERNEL_CALLS = {"forward": 0, "inverse": 0}


def _bit_reverse_permutation(n: int) -> list[int]:
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def _find_primitive_2n_root(q: int, n: int) -> int:
    """A primitive ``2n``-th root of unity mod ``q`` (``n`` a power of 2).

    Draw ``x`` and set ``ψ = x^((q-1)/2n)``; ``ψ`` has order dividing
    ``2n``.  Because ``2n`` is a power of two, ``ψ^n == -1`` certifies the
    order is exactly ``2n``.
    """
    exponent = (q - 1) // (2 * n)
    for x in range(2, q):
        psi = pow(x, exponent, q)
        if pow(psi, n, q) == q - 1:
            return psi
    raise ParameterError(f"no primitive 2*{n}-th root of unity mod {q}")


def _psi_tables(q: int, n: int) -> tuple[list[int], list[int], int]:
    """Bit-reversed ``ψ`` power tables and ``n^{-1}`` for ``(q, n)``."""
    psi = _find_primitive_2n_root(q, n)
    psi_inv = modmath.mod_inv(psi, q)
    rev = _bit_reverse_permutation(n)
    powers = [1] * n
    for i in range(1, n):
        powers[i] = powers[i - 1] * psi % q
    inv_powers = [1] * n
    for i in range(1, n):
        inv_powers[i] = inv_powers[i - 1] * psi_inv % q
    psi_rev = [powers[rev[i]] for i in range(n)]
    psi_inv_rev = [inv_powers[rev[i]] for i in range(n)]
    return psi_rev, psi_inv_rev, modmath.mod_inv(n, q)


def _as_table(values: list[int], q: int) -> np.ndarray:
    if modmath.dtype_for_modulus(q) is object:
        # Twiddle tables, not residue storage; dtype already routed by
        # the dtype_for_modulus call one line up.
        out = np.empty(len(values), dtype=object)  # fhelint: ok[dtype-routing]
        out[:] = values
        return out
    return np.array(values, dtype=np.uint64)


@lru_cache(maxsize=4096)
def _prime_tables(q: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Cached ``(ψ table, ψ^-1 table, n^-1)`` for one prime.

    The unit the stacked contexts are assembled from: a prime that
    appears in many bases (every level of a chain shares its prefix)
    pays for its root search and power tables once.
    """
    if not is_ntt_friendly(q, n):
        raise ParameterError(f"{q} is not an NTT-friendly prime for degree {n}")
    psi_rev, psi_inv_rev, n_inv = _psi_tables(q, n)
    return _as_table(psi_rev, q), _as_table(psi_inv_rev, q), n_inv


#: Which constant table a :meth:`NttRowsContext._twiddle_mul` call reads:
#: the attribute holding it (and the argument of ``_companion``).
_PSI, _PSI_INV, _N_INV = "_psi_rev", "_psi_inv_rev", "_n_inv_col"


class NttRowsContext:
    """Negacyclic NTT over a stack of primes, one residue row per prime.

    Transforms a ``(k, n)`` residue matrix — row ``i`` reduced mod
    ``moduli[i]`` — in one pass per stage, with the per-prime twiddle
    tables stacked into a ``(k, n)`` matrix and the moduli broadcast as a
    ``(k, 1, 1)`` column over the ``(k, blocks, t)`` working view.  The
    widest modulus picks the arithmetic for the whole stack
    (:func:`repro.nt.modmath.backend_kind`): the wide kernel is exact for
    narrow rows too, and one modulus ≥ 2^61 makes tables and matrix
    object-dtype.  A single prime is the ``k = 1`` case
    (:func:`ntt_context`), which also takes and returns 1-D rows.

    Parameters
    ----------
    moduli:
        NTT-friendly primes (``q ≡ 1 mod 2n``).
    n:
        Polynomial degree, a power of two.
    """

    def __init__(self, moduli: Sequence[int], n: int):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ParameterError("batched NTT needs at least one modulus")
        tables = [_prime_tables(q, n) for q in moduli]
        self.moduli = moduli
        self.n = n
        widest = max(moduli)
        self.kind = modmath.backend_kind(widest)
        self._dtype = modmath.dtype_for_modulus(widest)
        k = len(moduli)
        self._q_col = np.array(moduli, dtype=self._dtype).reshape(k, 1)
        self._q_col3 = self._q_col.reshape(k, 1, 1)
        self._n_inv_col = np.array(
            [t[2] for t in tables], dtype=self._dtype
        ).reshape(k, 1)
        self._companions: dict[str, np.ndarray] = {}

    # Each direction's stacked table is built on that direction's first
    # transform: a context that only ever runs forward (the rows a
    # keyswitch digit is extended to) never holds the inverse's.
    # np.stack lands on the widest row's dtype: one object table makes
    # the stack object (exact Python ints throughout).
    @cached_property
    def _psi_rev(self) -> np.ndarray:
        return np.stack([_prime_tables(q, self.n)[0] for q in self.moduli])

    @cached_property
    def _psi_inv_rev(self) -> np.ndarray:
        return np.stack([_prime_tables(q, self.n)[1] for q in self.moduli])

    def _companion(self, table: str) -> np.ndarray:
        """Shoup companion of one constant table, built on first use —
        by the wide stage kernels here, or by a backend that
        Shoup-multiplies at every width."""
        companion = self._companions.get(table)
        if companion is None:
            companion = modmath.shoup_companion(getattr(self, table), self._q_col)
            self._companions[table] = companion
        return companion

    # ------------------------------------------------------------------
    def _check(self, mat: np.ndarray) -> None:
        if mat.ndim != 2 or mat.shape != (len(self.moduli), self.n):
            raise ParameterError(
                f"expected a ({len(self.moduli)}, {self.n}) residue matrix, "
                f"got shape {mat.shape}"
            )
        if mat.dtype != self._dtype:
            raise ParameterError(
                f"NTT over {self.kind} moduli requires a "
                f"{np.dtype(self._dtype).name} matrix, got {mat.dtype}"
            )

    def _twiddle_mul(self, x: np.ndarray, table: str, lo: int, hi: int):
        """``x * table[:, lo:hi]`` mod ``q`` — the one width-aware multiply.

        ``x`` has shape ``(k, hi - lo, t)``; the table slice broadcasts
        as ``(k, hi - lo, 1)`` so every block multiplies by its own
        constant.  Wide stacks Shoup-multiply against the companion
        table; narrow products fit uint64 and big ones are Python ints.
        """
        s = getattr(self, table)[:, lo:hi, None]
        if self.kind == "wide":
            s_shoup = self._companion(table)[:, lo:hi, None]
            return modmath.mod_mul_shoup(x, s, s_shoup, self._q_col3)
        return x * s % self._q_col3

    def forward(self, mat: np.ndarray) -> np.ndarray:
        """Coefficient -> NTT transform of a ``(k, n)`` matrix.

        Dispatches through the kernel-backend registry; the numpy
        reference backend lands back on :meth:`_forward_stages`.
        """
        if mat.ndim == 1:
            return self.forward(mat[None])[0]
        self._check(mat)
        return _backends.ntt_forward(self, mat)

    def _forward_stages(self, mat: np.ndarray) -> np.ndarray:
        """The stage-vectorized numpy forward kernel (reference engine).

        Cooley–Tukey DIT; the stage with ``m`` blocks of half-length
        ``t`` views the matrix as ``(k, m, 2, t)`` and updates all blocks
        of all rows in a handful of numpy calls.
        """
        a = mat.copy()  # .copy() yields a fresh C-contiguous buffer
        k = len(self.moduli)
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            STAGE_KERNEL_CALLS["forward"] += 1
            blk = a.reshape(k, m, 2, t)
            u = blk[:, :, 0, :]
            v = self._twiddle_mul(blk[:, :, 1, :], _PSI, m, 2 * m)
            lo = modmath.mod_add(u, v, self._q_col3)
            hi = modmath.mod_sub(u, v, self._q_col3)
            blk[:, :, 0, :] = lo
            blk[:, :, 1, :] = hi
            m *= 2
        return a

    def inverse(self, mat: np.ndarray) -> np.ndarray:
        """NTT -> coefficient transform of a ``(k, n)`` matrix.

        Dispatches through the kernel-backend registry; the numpy
        reference backend lands back on :meth:`_inverse_stages`.
        """
        if mat.ndim == 1:
            return self.inverse(mat[None])[0]
        self._check(mat)
        return _backends.ntt_inverse(self, mat)

    def _inverse_stages(self, mat: np.ndarray) -> np.ndarray:
        """The stage-vectorized numpy inverse kernel (reference engine).

        Gentleman–Sande DIF with the mirrored ``(k, h, 2, t)`` view, then
        the ``n^-1`` scale as one more constant multiply.
        """
        a = mat.copy()
        k = len(self.moduli)
        t = 1
        m = self.n
        while m > 1:
            h = m // 2
            STAGE_KERNEL_CALLS["inverse"] += 1
            blk = a.reshape(k, h, 2, t)
            u = blk[:, :, 0, :]
            v = blk[:, :, 1, :]
            lo = modmath.mod_add(u, v, self._q_col3)
            hi = self._twiddle_mul(
                modmath.mod_sub(u, v, self._q_col3), _PSI_INV, h, 2 * h
            )
            blk[:, :, 0, :] = lo
            blk[:, :, 1, :] = hi
            t *= 2
            m = h
        return self._twiddle_mul(a.reshape(k, 1, -1), _N_INV, 0, 1).reshape(k, -1)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two coefficient-form polynomials mod ``X^n + 1``."""
        product = modmath.mod_mul(
            self.forward(np.atleast_2d(a)),
            self.forward(np.atleast_2d(b)),
            self._q_col,
        )
        return self.inverse(product).reshape(a.shape)


@lru_cache(maxsize=1024)
def ntt_rows_context(moduli: tuple[int, ...], n: int) -> NttRowsContext:
    """Cached :class:`NttRowsContext` for ``(moduli, n)``."""
    return NttRowsContext(moduli, n)


def ntt_context(q: int, n: int) -> NttRowsContext:
    """The cached single-prime (``k = 1``) context for ``(q, n)``."""
    return ntt_rows_context((q,), n)


def forward_rows(mat: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Forward NTT of every row of a ``(k, n)`` residue matrix at once."""
    if _sanitize.ACTIVE:
        _sanitize.check_residue_matrix(mat, moduli, "forward_rows")
    if _obs.ACTIVE:
        _obs.count("kernel.ntt.forward")
        _obs.count("kernel.ntt.forward.elems", mat.size)
    return ntt_rows_context(tuple(int(q) for q in moduli), mat.shape[-1]).forward(mat)


def inverse_rows(mat: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Inverse NTT of every row of a ``(k, n)`` residue matrix at once."""
    if _sanitize.ACTIVE:
        _sanitize.check_residue_matrix(mat, moduli, "inverse_rows")
    if _obs.ACTIVE:
        _obs.count("kernel.ntt.inverse")
        _obs.count("kernel.ntt.inverse.elems", mat.size)
    return ntt_rows_context(tuple(int(q) for q in moduli), mat.shape[-1]).inverse(mat)
