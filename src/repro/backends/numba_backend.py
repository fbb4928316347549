"""The Numba-JIT fast path: compiled scalar kernels per modulus width.

Where the numpy reference spends each NTT stage materializing ``(k, n)``
temporaries (one allocation-bound pass per numpy call), these kernels
compile the *whole* transform into one ``@njit(parallel=True,
cache=True)`` function: the butterfly loops run in registers, rows fan
out across cores with ``prange``, and no temporary ever touches the
allocator.  The same shape GPU FHE libraries use — a handful of hot
modular kernels specialized per word size behind a dispatch layer.

Per-width arithmetic, all exact in uint64:

- **narrow** (``q < 2^31``): products fit 62 bits, so the butterfly is a
  plain 64-bit multiply + remainder (the lazy-reduction accumulator
  idiom — sums stay unreduced inside the 64-bit headroom and fold once).
- **wide** (``2^31 <= q < 2^61``): the multi-word limb idiom.  A 64x64
  product is assembled from four 32-bit limb products
  (:func:`_mulhi64`), and reduction uses *Shoup multiplication*: for a
  constant ``w < q`` with precomputed companion
  ``w' = floor(w * 2^64 / q)``, ``x*w mod q`` is
  ``x*w - floor(x*w'/2^64)*q`` corrected by at most one subtraction —
  two multiplies and a mulhi, no division.  The scalar helpers are the
  compiled twins of :func:`repro.nt.modmath.mulhi64` /
  ``mod_mul_shoup``, and the constants come from one owner each: the
  twiddles and their companions through
  :meth:`~repro.nt.ntt.NttRowsContext.natural_tables` (the context
  keeps its own tables in stage order at its own β; these loops read
  natural order at β = 2^64), fold weights and the ``2^64 mod q``
  constant through ``modmath.shoup_companion`` / ``modmath.two64_mod``.

Every scalar helper is written in wrap-explicit uint64 arithmetic that
is *also* valid pure Python + numpy-scalar code: when numba is absent
``njit`` degrades to a pass-through decorator and the kernels still
compute bit-exact results (slowly) — the test suite uses this to pin
the algorithms' exactness even on numba-less installs.  Only the
``AVAILABLE`` flag decides whether the backend registers for dispatch.

The deliberate asymmetries vs. the reference backend:

- Shoup multiplication runs at β = 2^64 and fully reduced at *every*
  width, where the numpy engine halves the word for ``4q ≤ 2^32`` and
  rides lazy ranges between stages;
- the verification contract does the rest: registration cross-checks
  and ``REPRO_SANITIZE=1`` shadowing guarantee bit-identical outputs,
  so callers cannot observe which engine ran.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

import repro.nt.modmath as modmath
from repro.backends import KERNELS, KINDS, KernelBackend

try:  # pragma: no cover - exercised only where the extra is installed
    from numba import njit, prange

    AVAILABLE = True
except ImportError:
    AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):
        """Pass-through ``@njit`` so the kernels stay importable/testable."""

        def decorate(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return decorate


_MASK32 = np.uint64(0xFFFFFFFF)
_NARROW = np.uint64(1) << np.uint64(31)


# ----------------------------------------------------------------------
# Scalar helpers (multi-word limb arithmetic)
# ----------------------------------------------------------------------
@njit(cache=True)
def _mulhi64(a, b):
    """High 64 bits of the 128-bit product ``a * b`` via 32-bit limbs."""
    a_lo = a & _MASK32
    a_hi = a >> np.uint64(32)
    b_lo = b & _MASK32
    b_hi = b >> np.uint64(32)
    p0 = a_lo * b_lo
    p1 = a_lo * b_hi
    p2 = a_hi * b_lo
    p3 = a_hi * b_hi
    carry = ((p0 >> np.uint64(32)) + (p1 & _MASK32) + (p2 & _MASK32)) >> np.uint64(32)
    return p3 + (p1 >> np.uint64(32)) + (p2 >> np.uint64(32)) + carry


@njit(cache=True)
def _shoup_mul(x, w, w_shoup, q):
    """``x * w mod q`` for a constant ``w < q`` with companion ``w_shoup``.

    Valid for any ``x < 2^64`` and ``q < 2^61``: the quotient estimate
    ``floor(x * w_shoup / 2^64)`` is at most one below the true
    quotient, so the wrapped remainder lands in ``[0, 2q)`` and one
    conditional subtraction finishes the reduction.
    """
    hi = _mulhi64(x, w_shoup)
    r = x * w - hi * q  # wrapping: true value < 2q fits uint64
    if r >= q:
        r -= q
    return r


@njit(cache=True)
def _mulmod64(a, b, q, r64, r64_shoup):
    """General ``a * b mod q`` for ``a, b < 2^64`` via the limb product.

    ``a*b = hi·2^64 + lo``; with ``r64 = 2^64 mod q`` (and companion),
    the reduction is one Shoup multiply plus one scalar remainder.
    """
    hi = _mulhi64(a, b)
    lo = a * b  # wrapping: the low 64 bits
    t = _shoup_mul(hi, r64, r64_shoup, q)
    s = t + lo % q
    if s >= q:
        s -= q
    return s


# ----------------------------------------------------------------------
# NTT kernels: the full stage loop, one compiled pass per transform
# ----------------------------------------------------------------------
@njit(parallel=True, cache=True)
def _ntt_forward(a, psi, psi_shoup, q_vec):
    """In-place batched Cooley–Tukey DIT forward transform."""
    k, n = a.shape
    for row in prange(k):
        q = q_vec[row]
        t = n
        m = 1
        while m < n:
            t //= 2
            for i in range(m):
                s = psi[row, m + i]
                s_sh = psi_shoup[row, m + i]
                j1 = 2 * i * t
                for j in range(j1, j1 + t):
                    u = a[row, j]
                    v = _shoup_mul(a[row, j + t], s, s_sh, q)
                    lo = u + v
                    if lo >= q:
                        lo -= q
                    hi = u + (q - v)
                    if hi >= q:
                        hi -= q
                    a[row, j] = lo
                    a[row, j + t] = hi
            m *= 2


@njit(parallel=True, cache=True)
def _ntt_inverse(a, psi_inv, psi_inv_shoup, q_vec, n_inv, n_inv_shoup):
    """In-place batched Gentleman–Sande DIF inverse transform."""
    k, n = a.shape
    for row in prange(k):
        q = q_vec[row]
        t = 1
        m = n
        while m > 1:
            h = m // 2
            for i in range(h):
                s = psi_inv[row, h + i]
                s_sh = psi_inv_shoup[row, h + i]
                j1 = 2 * i * t
                for j in range(j1, j1 + t):
                    u = a[row, j]
                    v = a[row, j + t]
                    lo = u + v
                    if lo >= q:
                        lo -= q
                    diff = u + (q - v)
                    if diff >= q:
                        diff -= q
                    a[row, j] = lo
                    a[row, j + t] = _shoup_mul(diff, s, s_sh, q)
            t *= 2
            m = h
        ninv = n_inv[row]
        ninv_sh = n_inv_shoup[row]
        for j in range(n):
            a[row, j] = _shoup_mul(a[row, j], ninv, ninv_sh, q)


# ----------------------------------------------------------------------
# Base-conversion fold and pointwise kernels
# ----------------------------------------------------------------------
@njit(parallel=True, cache=True)
def _bconv_fold(stack, weights, weights_shoup, dst):
    """``out[j] = Σ_i stack[i] · weights[j, i] mod dst[j]``.

    Shoup multiplication accepts *unreduced* digits (any ``x < 2^64``),
    so unlike the numpy path no pre-reduction pass over the stack is
    ever needed — the fold is one multiply-accumulate per term.
    """
    kk, n = stack.shape
    m = dst.shape[0]
    out = np.empty((m, n), dtype=np.uint64)
    for j in prange(m):
        p = dst[j]
        row = np.zeros(n, dtype=np.uint64)
        for i in range(kk):
            w = weights[j, i]
            w_sh = weights_shoup[j, i]
            for c in range(n):
                v = _shoup_mul(stack[i, c], w, w_sh, p)
                s = row[c] + v
                if s >= p:
                    s -= p
                row[c] = s
        out[j] = row
    return out


@njit(parallel=True, cache=True)
def _pointwise_mul(a, b, q_vec, r64, r64_shoup):
    """Elementwise ``a * b mod q`` over a ``(k, n)`` row stack."""
    k, n = a.shape
    out = np.empty_like(a)
    for row in prange(k):
        q = q_vec[row]
        if q < _NARROW:
            for j in range(n):
                out[row, j] = a[row, j] * b[row, j] % q
        else:
            r = r64[row]
            r_sh = r64_shoup[row]
            for j in range(n):
                out[row, j] = _mulmod64(a[row, j], b[row, j], q, r, r_sh)
    return out


@njit(parallel=True, cache=True)
def _pointwise_mul_acc(acc, a, b, q_vec, r64, r64_shoup):
    """Fused ``acc + a * b mod q`` (the keyswitch inner loop)."""
    k, n = a.shape
    out = np.empty_like(a)
    for row in prange(k):
        q = q_vec[row]
        if q < _NARROW:
            for j in range(n):
                s = acc[row, j] + a[row, j] * b[row, j] % q
                if s >= q:
                    s -= q
                out[row, j] = s
        else:
            r = r64[row]
            r_sh = r64_shoup[row]
            for j in range(n):
                s = acc[row, j] + _mulmod64(a[row, j], b[row, j], q, r, r_sh)
                if s >= q:
                    s -= q
                out[row, j] = s
    return out


# ----------------------------------------------------------------------
# Python-side wrappers: table caches and dispatch glue
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _ntt_tables(ctx, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """``ctx.natural_tables(inverse)``, retained here: the context does
    not keep the layout these loops read, and the companions are too
    dear to rebuild per transform."""
    return ctx.natural_tables(inverse)


@lru_cache(maxsize=1024)
def _modulus_constants(
    moduli: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(q_vec, r64, r64_shoup)`` for a moduli tuple, cached."""
    q_vec = np.array(moduli, dtype=np.uint64)
    return (q_vec, *modmath.two64_mod(q_vec))


class NumbaBackend(KernelBackend):
    """JIT-compiled uint64 kernels; registered only when numba imports."""

    name = "numba"
    priority = 10
    supported = frozenset(
        (kernel, kind) for kernel in KERNELS for kind in KINDS
    )

    def ntt_forward(self, ctx, mat: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(mat).copy()
        psi, psi_shoup = _ntt_tables(ctx, False)
        q_vec = _modulus_constants(ctx.moduli)[0]
        with np.errstate(over="ignore"):
            # The jitted loop is per matrix; a stack is walked here.
            for sub in a.reshape(-1, *a.shape[-2:]):
                _ntt_forward(sub, psi, psi_shoup, q_vec)
        return a

    def ntt_inverse(self, ctx, mat: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(mat).copy()
        psi_inv, psi_inv_shoup = _ntt_tables(ctx, True)
        q_vec = _modulus_constants(ctx.moduli)[0]
        with np.errstate(over="ignore"):
            for sub in a.reshape(-1, *a.shape[-2:]):
                # Slot 0 of the inverse tables is n^-1 (no stage reads it).
                _ntt_inverse(
                    sub, psi_inv, psi_inv_shoup, q_vec,
                    psi_inv[:, 0], psi_inv_shoup[:, 0],
                )
        return a

    def bconv_fold(
        self,
        stack: np.ndarray,
        weights: np.ndarray,
        dst_moduli: np.ndarray,
        v_bound: int,
        kind: str,
    ) -> np.ndarray:
        weights_shoup = modmath.shoup_companion(
            weights, dst_moduli.reshape(-1, 1)
        )
        with np.errstate(over="ignore"):
            return _bconv_fold(
                np.ascontiguousarray(stack),
                np.ascontiguousarray(weights),
                weights_shoup,
                dst_moduli,
            )

    def pointwise_mul(
        self, a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
    ) -> np.ndarray:
        moduli = tuple(int(q) for q in q_col.reshape(-1))
        q_vec, r64, r64_shoup = _modulus_constants(moduli)
        with np.errstate(over="ignore"):
            return _pointwise_mul(
                np.ascontiguousarray(a),
                np.ascontiguousarray(b),
                q_vec,
                r64,
                r64_shoup,
            )

    def pointwise_mul_acc(
        self,
        acc: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        q_col: np.ndarray,
        kind: str,
    ) -> np.ndarray:
        moduli = tuple(int(q) for q in q_col.reshape(-1))
        q_vec, r64, r64_shoup = _modulus_constants(moduli)
        with np.errstate(over="ignore"):
            return _pointwise_mul_acc(
                np.ascontiguousarray(acc),
                np.ascontiguousarray(a),
                np.ascontiguousarray(b),
                q_vec,
                r64,
                r64_shoup,
            )
