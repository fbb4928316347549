"""Negacyclic number-theoretic transform over ``Z_q[X]/(X^N + 1)``.

This is the workhorse of every polynomial multiplication in CKKS and the
unit the accelerators dedicate their largest functional units to (the NTT
FUs of CraterLake, Fig. 9).  We implement the standard fused-twist
iterative transforms (Longa–Naehrig): Cooley–Tukey decimation-in-time for
the forward transform and Gentleman–Sande decimation-in-frequency for the
inverse, with powers of the primitive ``2N``-th root ``ψ`` folded into the
twiddle tables so no separate pre/post twist pass is needed.

The butterflies are *stage-vectorized*: each of the ``log2 n`` stages is a
constant number of numpy calls.  The working vector is viewed as a
``(blocks, 2, t)`` tensor, the stage's twiddles broadcast as a
``(blocks, 1)`` column, and all blocks update at once — there is no
Python-level loop over butterfly blocks.  :func:`forward_rows` /
:func:`inverse_rows` lift the same idea one axis higher and transform a
whole ``(k, n)`` residue matrix (one row per RNS prime) in a single pass,
with a ``(k, n)`` twiddle table stacked across the primes.

Contexts (twiddle tables) are cached per ``(q, n)`` and per moduli tuple;
they are the software analogue of the accelerator's precomputed twiddle
ROMs.  Twiddles are constants, so the wide path multiplies by them with
Shoup's method: each table has a companion ``floor(w * 2^64 / q)``
table (:func:`repro.nt.modmath.shoup_companion`), built once per cached
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


class NttContext:
    """Precomputed tables for the negacyclic NTT mod one prime.

    Parameters
    ----------
    q:
        An NTT-friendly prime (``q ≡ 1 mod 2n``).
    n:
        Polynomial degree, a power of two.
    """

    def __init__(self, q: int, n: int):
        if not is_ntt_friendly(q, n):
            raise ParameterError(f"{q} is not an NTT-friendly prime for degree {n}")
        self.q = q
        self.n = n
        self.kind = modmath.backend_kind(q)
        psi_rev, psi_inv_rev, n_inv = _psi_tables(q, n)
        self._psi_rev = _as_table(psi_rev, q)
        self._psi_inv_rev = _as_table(psi_inv_rev, q)
        self._n_inv = n_inv

    @cached_property
    def _shoup(self) -> tuple[np.ndarray, np.ndarray]:
        """Shoup companions of ``(psi_rev, psi_inv_rev)`` (uint64 kinds)."""
        return (
            modmath.shoup_companion(self._psi_rev, self.q),
            modmath.shoup_companion(self._psi_inv_rev, self.q),
        )

    # ------------------------------------------------------------------
    def _twiddle_mul(self, x: np.ndarray, lo: int, hi: int, inverse: bool):
        """``x * ψ_table[lo:hi]`` mod ``q`` with the table as a column.

        ``x`` has shape ``(hi - lo, t)``; the twiddle slice broadcasts as
        ``(hi - lo, 1)`` so every block multiplies by its own root.
        """
        table = self._psi_inv_rev if inverse else self._psi_rev
        s = table[lo:hi].reshape(-1, 1)
        if self.kind == "narrow":
            return x * s % np.uint64(self.q)
        if self.kind == "wide":
            s_shoup = self._shoup[1 if inverse else 0][lo:hi].reshape(-1, 1)
            return modmath.mod_mul_shoup(x, s, s_shoup, self.q)
        return (x * s) % self.q

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Transform coefficient form -> evaluation (NTT) form.

        Cooley–Tukey DIT; stage with ``m`` blocks of half-length ``t``
        views the vector as ``(m, 2, t)`` and updates all blocks in a
        handful of numpy calls.
        """
        if _obs.ACTIVE:
            _obs.count("kernel.ntt.forward")
            _obs.count("kernel.ntt.forward.elems", coeffs.size)
        q = self.q
        a = coeffs.copy()  # .copy() yields a fresh C-contiguous buffer
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            STAGE_KERNEL_CALLS["forward"] += 1
            blk = a.reshape(m, 2, t)
            u = blk[:, 0, :]
            v = self._twiddle_mul(blk[:, 1, :], m, 2 * m, inverse=False)
            lo = modmath.mod_add(u, v, q)
            hi = modmath.mod_sub(u, v, q)
            blk[:, 0, :] = lo
            blk[:, 1, :] = hi
            m *= 2
        return a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Transform evaluation (NTT) form -> coefficient form.

        Gentleman–Sande DIF with the mirrored ``(h, 2, t)`` view.
        """
        if _obs.ACTIVE:
            _obs.count("kernel.ntt.inverse")
            _obs.count("kernel.ntt.inverse.elems", values.size)
        q = self.q
        a = values.copy()
        t = 1
        m = self.n
        while m > 1:
            h = m // 2
            STAGE_KERNEL_CALLS["inverse"] += 1
            blk = a.reshape(h, 2, t)
            u = blk[:, 0, :]
            v = blk[:, 1, :]
            lo = modmath.mod_add(u, v, q)
            hi = self._twiddle_mul(modmath.mod_sub(u, v, q), h, 2 * h, inverse=True)
            blk[:, 0, :] = lo
            blk[:, 1, :] = hi
            t *= 2
            m = h
        return modmath.mod_scalar_mul(a, self._n_inv, q)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two coefficient-form polynomials mod ``X^n + 1``."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(modmath.mod_mul(fa, fb, self.q))


@lru_cache(maxsize=4096)
def ntt_context(q: int, n: int) -> NttContext:
    """Cached :class:`NttContext` for ``(q, n)``."""
    return NttContext(q, n)


class NttRowsContext:
    """Batched negacyclic NTT over a stack of uint64 primes.

    Transforms a ``(k, n)`` residue matrix — row ``i`` reduced mod
    ``moduli[i]`` — in one pass per stage, with the per-prime twiddle
    tables stacked into a ``(k, n)`` matrix and the moduli broadcast as a
    ``(k, 1, 1)`` column over the ``(k, blocks, t)`` working view.  All
    moduli must be below ``2^61`` (the uint64 backends); big-int rows stay
    on the per-row :class:`NttContext` path.
    """

    def __init__(self, moduli: Sequence[int], n: int):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ParameterError("batched NTT needs at least one modulus")
        kinds = {modmath.backend_kind(q) for q in moduli}
        if "big" in kinds:
            raise ParameterError(
                "batched NTT supports uint64 moduli only (< 2^61); "
                "route big-int rows through NttContext"
            )
        self.moduli = moduli
        self.n = n
        # A single wide row forces the wide (exact for narrow too) kernel.
        self.kind = "wide" if "wide" in kinds else "narrow"
        ctxs = [ntt_context(q, n) for q in moduli]
        k = len(moduli)
        self._psi_rev = np.stack([c._psi_rev for c in ctxs])
        self._psi_inv_rev = np.stack([c._psi_inv_rev for c in ctxs])
        self._q_col = np.array(moduli, dtype=np.uint64).reshape(k, 1)
        self._q_col3 = self._q_col.reshape(k, 1, 1)
        self._n_inv_col = np.array(
            [c._n_inv for c in ctxs], dtype=np.uint64
        ).reshape(k, 1)

    @cached_property
    def _shoup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shoup companions of ``(psi_rev, psi_inv_rev, n_inv_col)``.

        Built on first use — by the wide stage kernels here, or by a
        backend that Shoup-multiplies at every width.
        """
        return tuple(
            modmath.shoup_companion(table, self._q_col)
            for table in (self._psi_rev, self._psi_inv_rev, self._n_inv_col)
        )

    # ------------------------------------------------------------------
    def _check(self, mat: np.ndarray) -> None:
        if mat.ndim != 2 or mat.shape != (len(self.moduli), self.n):
            raise ParameterError(
                f"expected a ({len(self.moduli)}, {self.n}) residue matrix, "
                f"got shape {mat.shape}"
            )
        if mat.dtype != np.uint64:
            raise ParameterError("batched NTT requires a uint64 matrix")

    def _twiddle_mul(self, x: np.ndarray, lo: int, hi: int, inverse: bool):
        table = self._psi_inv_rev if inverse else self._psi_rev
        s = table[:, lo:hi, None]  # (k, blocks, 1)
        if self.kind == "narrow":
            return x * s % self._q_col3
        s_shoup = self._shoup[1 if inverse else 0][:, lo:hi, None]
        return modmath.mod_mul_shoup(x, s, s_shoup, self._q_col3)

    def forward(self, mat: np.ndarray) -> np.ndarray:
        """Batched coefficient -> NTT transform of a ``(k, n)`` matrix.

        Dispatches through the kernel-backend registry; the numpy
        reference backend lands back on :meth:`_forward_stages`.
        """
        self._check(mat)
        return _backends.ntt_forward(self, mat)

    def _forward_stages(self, mat: np.ndarray) -> np.ndarray:
        """The stage-vectorized numpy forward kernel (reference engine)."""
        a = mat.copy()
        k = len(self.moduli)
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            STAGE_KERNEL_CALLS["forward"] += 1
            blk = a.reshape(k, m, 2, t)
            u = blk[:, :, 0, :]
            v = self._twiddle_mul(blk[:, :, 1, :], m, 2 * m, inverse=False)
            lo = modmath.mod_add(u, v, self._q_col3)
            hi = modmath.mod_sub(u, v, self._q_col3)
            blk[:, :, 0, :] = lo
            blk[:, :, 1, :] = hi
            m *= 2
        return a

    def inverse(self, mat: np.ndarray) -> np.ndarray:
        """Batched NTT -> coefficient transform of a ``(k, n)`` matrix.

        Dispatches through the kernel-backend registry; the numpy
        reference backend lands back on :meth:`_inverse_stages`.
        """
        self._check(mat)
        return _backends.ntt_inverse(self, mat)

    def _inverse_stages(self, mat: np.ndarray) -> np.ndarray:
        """The stage-vectorized numpy inverse kernel (reference engine)."""
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
                modmath.mod_sub(u, v, self._q_col3), h, 2 * h, inverse=True
            )
            blk[:, :, 0, :] = lo
            blk[:, :, 1, :] = hi
            t *= 2
            m = h
        if self.kind == "narrow":
            return a * self._n_inv_col % self._q_col
        return modmath.mod_mul_shoup(
            a, self._n_inv_col, self._shoup[2], self._q_col
        )


@lru_cache(maxsize=1024)
def ntt_rows_context(moduli: tuple[int, ...], n: int) -> NttRowsContext:
    """Cached :class:`NttRowsContext` for ``(moduli, n)``."""
    return NttRowsContext(moduli, n)


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
