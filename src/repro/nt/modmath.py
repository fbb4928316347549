"""Elementwise modular arithmetic on coefficient vectors.

Residue polynomials are numpy arrays of coefficients reduced modulo a
single prime ``q``.  Three backends sit behind one API:

- **uint64 narrow path** (``q < 2^31``): sums fit in 32 bits and products
  in 62 bits, so plain ``uint64`` vector ops are exact.  This covers the
  28-31-bit datapaths that BitPacker makes the sweet spot.
- **uint64 wide path** (``2^31 <= q < 2^61``): products overflow 64 bits,
  so multiplication is multi-word.  :func:`mulhi64` assembles the high
  word of a 64x64 product from 32-bit limbs; a *constant* operand ``w``
  carries a precomputed companion ``w' = floor(w * 2^64 / q)``
  (:func:`shoup_companion`) and multiplies in two products, one mulhi
  and one ``min`` (:func:`mod_mul_shoup`, valid for any ``x < 2^64``);
  variable x variable products fold ``hi * 2^64 + lo`` through the
  constant ``2^64 mod q`` (:func:`two64_mod`).  Every step is a
  wrapping ``uint64`` ufunc — no float ever touches a residue, so the
  path is exact wherever numpy is, whatever width the platform's
  extended floats have.
- **big-int path** (``q >= 2^61``): numpy ``object`` arrays of Python
  ints, exact for any modulus width up to the 64-bit words the paper
  sweeps.

Every elementwise function accepts ``q`` either as a plain int (one
modulus for the whole array) or as a ``uint64`` ndarray broadcastable
against the operands — typically a ``(k, 1)`` column so a whole stacked
``(k, n)`` residue matrix is reduced against per-row moduli in a single
numpy call.  Array moduli must all live on the same backend (the caller
groups rows by :func:`backend_kind`); dispatch uses the largest modulus.

Add, subtract and negate are branch-free on the uint64 paths: the
candidate that wrapped past ``2^64`` is the large one, so one
``np.minimum`` picks the reduced value (``min(s, s - q)`` after an add,
``min(d, d + q)`` after a subtract) where a compare-and-select would
spend three passes.  Operands must already be reduced below ``q``.

**Lazy primitives** (what the NTT stage loops are built from).  The
Shoup multiply is written against an abstract machine word β:
:func:`mod_mul_shoup_lazy` returns ``x·w − ⌊x·w′/β⌋·q ∈ [0, 2q)`` for
any ``x < β`` and leaves the last conditional subtraction to the caller;
:func:`lazy_fold` is that subtraction (``[0, 2m) → [0, m)``, one
``min``), so a butterfly can carry ``[0, 2q)`` / ``[0, 4q)`` values
across stages and reduce fully once.  β is the operand's dtype:
uint64 arrays use :func:`mulhi64`; uint32 arrays (``4q ≤ 2^32``) use
:func:`mulhi32`, where the whole product fits one uint64 and every
other step is a wrapping uint32 ufunc on half the bytes.
:func:`mod_mul_shoup` is the two composed at β = 2^64.

All functions are pure unless handed an ``out``: they never mutate
their inputs.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.errors import ParameterError


def _tune_allocator() -> None:
    """Raise glibc malloc's mmap/trim thresholds (Linux-only, best effort).

    The vectorized kernels allocate and free multi-hundred-KB numpy
    temporaries at a very high rate.  With glibc's default 128 KB mmap
    threshold each of those comes from a fresh ``mmap`` and is returned
    on free, so every temporary pays page-fault-and-zero cost; measured
    here, that made a ``(4, 2^14)`` ``mod_sub`` ~3x slower than the same
    arithmetic on recycled buffers.  Raising the thresholds keeps the
    buffers in the arena free lists.  Set ``REPRO_NO_MALLOPT=1`` to skip.
    """
    import ctypes
    import os

    if os.environ.get("REPRO_NO_MALLOPT") or not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 26)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 26)  # M_TRIM_THRESHOLD
    except Exception:
        # fhelint: ok[exception-swallow] best-effort allocator tuning;
        # any failure (no glibc, sandboxed ctypes) must not break import
        pass


_tune_allocator()

#: Moduli at or above this bound fall back to exact Python-int arrays.
BIG_MODULUS_THRESHOLD = 1 << 61
#: Below this bound products of two residues fit in uint64 directly.
_NARROW_THRESHOLD = 1 << 31
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_U64_MAX = (1 << 64) - 1
#: Which uint32 half of a uint64 word holds its high bits.
_HI32 = 1 if sys.byteorder == "little" else 0


def dtype_for_modulus(q: int):
    """The numpy dtype used to store residues mod ``q``."""
    if q < 2:
        raise ParameterError(f"modulus must be >= 2, got {q}")
    if q >= 1 << 64:
        raise ParameterError(
            f"moduli above 64 bits are unsupported, got {q.bit_length()} bits"
        )
    return np.uint64 if q < BIG_MODULUS_THRESHOLD else object


def backend_kind(q: int) -> str:
    """Which of the three backends serves modulus ``q``.

    ``"narrow"`` (products fit uint64), ``"wide"`` (32-bit-limb mulhi +
    Shoup reduction), or ``"big"`` (Python-int object arrays).  Rows whose
    moduli share a kind can be stacked into one matrix and processed by a
    single vectorized call.
    """
    if dtype_for_modulus(q) is object:
        return "big"
    return "narrow" if q < _NARROW_THRESHOLD else "wide"


def _q_arr(q):
    """``q`` as a uint64 scalar, or passed through when already an array."""
    if isinstance(q, np.ndarray):
        return q
    return np.uint64(q)


def _q_bound(q) -> int:
    """Largest modulus represented by ``q`` (drives backend dispatch)."""
    if isinstance(q, np.ndarray):
        return int(q.max())
    return int(q)


def as_mod_array(values, q: int) -> np.ndarray:
    """Coerce ``values`` to a reduced residue vector mod ``q``.

    Accepts lists of ints, numpy integer arrays, or object arrays; values
    may be negative or unreduced.  Inexact (float) arrays are rejected:
    a residue that went through float64 has already lost low bits for
    values at or above 2^53, and reducing it would silently corrupt the
    polynomial.  Plain Python sequences never touch float either —
    ``np.asarray([2**63 + 1])`` promotes to float64, so sequences reduce
    through exact Python ints instead.
    """
    dtype = dtype_for_modulus(q)
    if dtype is object:
        return np.array([int(v) % q for v in values], dtype=object)
    if not isinstance(values, np.ndarray):
        # Exact path: asarray on a list of ints in [2^63, 2^64) yields
        # float64 and silently rounds the values.
        return np.array([int(v) % q for v in values], dtype=np.uint64)
    arr = values
    if arr.dtype.kind == "f":
        raise ParameterError(
            "as_mod_array got a float array; residues must arrive exact "
            "(convert with exact ints upstream)"
        )
    if arr.dtype == np.uint64:
        return arr % np.uint64(q)
    if arr.dtype.kind in "iu":
        # Signed inputs: q < 2^61 fits int64 and numpy's % is
        # non-negative for a positive divisor.
        return (arr.astype(np.int64) % np.int64(q)).astype(np.uint64)
    return np.array([int(v) % q for v in arr], dtype=np.uint64)


def zeros(n: int, q: int) -> np.ndarray:
    """The zero vector of length ``n`` mod ``q``."""
    if dtype_for_modulus(q) is object:
        out = np.empty(n, dtype=object)
        out[:] = 0
        return out
    return np.zeros(n, dtype=np.uint64)


def _is_big(a: np.ndarray) -> bool:
    return a.dtype == object


def mod_add(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """``(a + b) mod q`` elementwise (operands reduced)."""
    if _is_big(a):
        return (a + b) % q  # fhelint: ok[overflow-hazard] object rows: exact ints
    qa = _q_arr(q)
    s = a + b  # < 2^62, no wrap
    return np.minimum(s, s - qa)  # s - q wraps high exactly when s < q


def mod_sub(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """``(a - b) mod q`` elementwise (operands reduced)."""
    if _is_big(a):
        return (a - b) % q  # fhelint: ok[overflow-hazard] object rows: exact ints
    d = a - b  # wraps high exactly when a < b
    return np.minimum(d, d + _q_arr(q))


def mod_neg(a: np.ndarray, q) -> np.ndarray:
    """``(-a) mod q`` elementwise (operand reduced; ``-0`` stays 0)."""
    if _is_big(a):
        return (-a) % q  # fhelint: ok[overflow-hazard] object rows: exact ints
    d = np.negative(a)  # 2^64 - a, or 0
    return np.minimum(d, d + _q_arr(q))


def mulhi64(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b`` (any ``a, b < 2^64``).

    Four 32x32 limb products.  Neither middle sum can wrap
    (``(2^32 - 1)^2 + 2^32 - 1 < 2^64``), so the carries into the high
    word fall out of plain shifts.  Accumulates in place: this is the
    innermost kernel of the wide path and temporaries are its cost.
    """
    a_lo, a_hi = a & _MASK32, a >> _SHIFT32
    b_lo, b_hi = b & _MASK32, b >> _SHIFT32
    mid = a_lo * b_lo
    mid >>= _SHIFT32
    mid += a_hi * b_lo
    mid2 = mid & _MASK32
    mid2 += a_lo * b_hi
    mid >>= _SHIFT32
    mid2 >>= _SHIFT32
    mid += mid2
    mid += a_hi * b_hi
    return mid


def _per_modulus(q, fn):
    """``fn`` (Python int -> int) mapped over the moduli, in ``q``'s shape."""
    if isinstance(q, np.ndarray):
        vals = [fn(int(v)) for v in q.flat]
        return np.array(vals, dtype=np.uint64).reshape(q.shape)
    return np.uint64(fn(int(q)))


def shoup_companion(w: np.ndarray, q, beta_bits: int = 64) -> np.ndarray:
    """``floor(w * β / q)`` for a uint64 array ``w < q``, exactly.

    The precomputed half of Shoup multiplication (see
    :func:`mod_mul_shoup_lazy`) at word ``β = 2^beta_bits``.  At
    ``β = 2^32`` (``q ≤ 2^30``) the numerator fits a machine word and
    one division per *table entry, once per table* does it.  At
    ``β = 2^64`` (``q < 2^61``) it is vectorized without one: with ``b``
    the bit length of ``q`` and ``m = floor(2^(63+b) / q)`` (one
    Python-int division per *modulus*), ``floor(w * m / 2^(b-1))``
    undershoots the quotient by at most 2; the wrapped remainder
    ``-est * q`` then says by how much.
    """
    qa = _q_arr(q)
    if beta_bits == 32:
        return (w << _SHIFT32) // qa
    b = _per_modulus(q, int.bit_length)
    m = _per_modulus(q, lambda v: min((1 << (63 + v.bit_length())) // v, _U64_MAX))
    # The 128-bit product w * m, shifted right by b - 1 (fits 64 bits).
    est = (mulhi64(w, m) << (np.uint64(65) - b)) | (w * m >> (b - np.uint64(1)))
    r = np.negative(est * qa)  # w * 2^64 - est * q, in [0, 3q)
    return est + r // qa


def two64_mod(q):
    """``(2^64 mod q, its Shoup companion)`` per modulus, in ``q``'s shape.

    The constant that folds the high word of a 128-bit product back
    under ``q``; both engines' general multiply is built on it.
    """
    return (
        _per_modulus(q, lambda v: (1 << 64) % v),
        _per_modulus(q, lambda v: ((1 << 64) % v << 64) // v),
    )


def mulhi32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 32 bits of the 64-bit product ``a * b`` of two uint32 arrays.

    The word-halved :func:`mulhi64`: the whole product fits one uint64,
    so it is one widening multiply, and the high words are read where
    they lie (a strided uint32 view, no shift pass).
    """
    wide = np.multiply(a, b.astype(np.uint64), order="C")
    return wide.view(np.uint32)[..., _HI32::2]


def mod_mul_shoup_lazy(x: np.ndarray, w, w_shoup, q, out=None) -> np.ndarray:
    """``x·w − ⌊x·w′/β⌋·q``: congruent to ``x * w`` mod ``q`` and in
    ``[0, 2q)``, for a constant ``w < q`` and *any* ``x < β``.

    β is ``x``'s word: ``2^64`` for a uint64 array (``q < 2^61``),
    ``2^32`` for a uint32 one (``q ≤ 2^30``, every operand uint32), and
    ``w′ = floor(w·β/q)`` is ``w``'s :func:`shoup_companion` at that β.
    The quotient estimate is short of ``⌊x·w/q⌋`` by less than
    ``1 + x/β ≤ 2``, so the wrapped low-word difference is the true
    remainder plus at most one ``q``.  The caller owns the last
    conditional subtraction (:func:`lazy_fold`), or carries the lazy
    value on.  ``w``, ``w_shoup`` and ``q`` broadcast against ``x``;
    ``out`` receives the result (it may be a strided view).
    """
    mulhi = mulhi32 if x.dtype == np.uint32 else mulhi64
    r = mulhi(x, w_shoup) * q
    return np.subtract(x * w, r, out=r if out is None else out)


def lazy_fold(x: np.ndarray, m, out=None) -> np.ndarray:
    """``x`` or ``x - m``, whichever lies in ``[0, m)``, for ``x`` in
    ``[0, 2m)`` — the one conditional subtraction of a lazy butterfly.

    Branch-free on uint64: ``x - m`` wraps high exactly when ``x < m``,
    so ``min`` picks the folded value.  Object rows are Python ints,
    which do not wrap; they take the remainder.
    """
    if _is_big(x):
        return np.remainder(x, m, out=out)
    d = x - m
    return np.minimum(x, d, out=d if out is None else out)


def mod_mul_shoup(x: np.ndarray, w, w_shoup, q) -> np.ndarray:
    """``x * w mod q`` for a constant ``w < q`` with its β = 2^64 Shoup
    companion: :func:`mod_mul_shoup_lazy` and the fold that finishes it.

    ``x`` is a uint64 array and need *not* be reduced (any ``x < 2^64``,
    ``q < 2^61``).  ``w``, ``w_shoup`` and ``q`` broadcast against ``x``
    (scalars, twiddle columns, per-row ``(k, 1)`` columns).
    """
    qa = _q_arr(q)
    r = mod_mul_shoup_lazy(x, w, w_shoup, qa)
    return lazy_fold(r, qa, out=r)


def _mulmod_wide(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """Exact ``a * b mod q`` for two uint64 arrays, ``q < 2^61``.

    ``a * b = hi * 2^64 + lo``: the high word folds through
    ``2^64 mod q`` (one Shoup multiply), the low word takes one
    machine remainder.
    """
    qa = _q_arr(q)
    r64, r64_shoup = two64_mod(q)
    folded = mod_mul_shoup(mulhi64(a, b), r64, r64_shoup, qa)
    return mod_add(folded, a * b % qa, qa)  # fhelint: ok[overflow-hazard] low word


def mod_mul(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """``(a * b) mod q`` elementwise (exact for all backends)."""
    if _is_big(a):
        return (a * b) % q  # fhelint: ok[overflow-hazard] object rows: exact ints
    if _q_bound(q) < _NARROW_THRESHOLD:
        return a * b % _q_arr(q)  # fhelint: ok[overflow-hazard] narrow: < 2^62
    return _mulmod_wide(a, b, q)


def mod_scalar_mul(a: np.ndarray, k: int, q: int) -> np.ndarray:
    """``(a * k) mod q`` for a scalar ``k`` (any size; reduced first)."""
    k %= q
    if _is_big(a):
        return (a * k) % q  # fhelint: ok[overflow-hazard] object rows: exact ints
    if q < _NARROW_THRESHOLD:
        # Narrow backend: both a and k sit below 2^31.
        return a * np.uint64(k) % np.uint64(q)  # fhelint: ok[overflow-hazard]
    return mod_mul_shoup(a, np.uint64(k), np.uint64((k << 64) // q), q)


def mod_inv(x: int, q: int) -> int:
    """Multiplicative inverse of ``x`` modulo ``q`` (q need not be prime)."""
    x %= q
    g, s, _ = _xgcd(x, q)
    if g != 1:
        raise ParameterError(f"{x} is not invertible modulo {q} (gcd={g})")
    return s % q


def mod_pow(base: int, exp: int, q: int) -> int:
    """``base**exp mod q`` for scalars."""
    return pow(base, exp, q)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns ``(g, s, t)`` with ``a*s + b*t = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def uniform_mod(q: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` independent uniform samples from ``[0, q)``.

    Used for the uniformly random polynomial in CKKS encryption and for
    public-key / keyswitch-key generation.
    """
    if q <= 1:
        return zeros(size, q if q >= 2 else 2)
    raw = rng.integers(0, q, size=size, dtype=np.uint64)
    if dtype_for_modulus(q) is object:
        return np.array([int(v) for v in raw], dtype=object)
    return raw


def to_int_list(a: np.ndarray) -> list[int]:
    """Residue vector as plain Python ints (for CRT and test oracles)."""
    return [int(v) for v in a]
