"""Elementwise modular arithmetic on coefficient vectors.

Residue polynomials are numpy ``uint64`` arrays of coefficients reduced
modulo a single prime ``q``, and every modulus lies in ``[2, 2^61)``
(:func:`backend_kind` rejects anything else).
Two word classes sit behind one API:

- **narrow** (``q < 2^31``): sums fit in 32 bits and products in 62
  bits, so plain ``uint64`` vector ops are exact, and a product takes
  one :func:`mod_reduce`.  This covers the 28-31-bit datapaths that
  BitPacker makes the sweet spot.
- **wide** (``2^31 <= q < 2^61``): products overflow 64 bits, so
  multiplication is multi-word.  A *constant* operand ``w`` carries a
  precomputed companion ``w' = floor(w * 2^62 / q)``, stored as two
  31-bit limbs (:func:`shoup_limbs`), and multiplies in three limb
  products for the quotient plus two for the remainder
  (:func:`mod_mul_shoup`, valid for any ``x < 2^63`` — every lazy NTT
  value, reduced operand, high word and base-conversion digit).  The
  four-limb :func:`mulhi64` remains for the high word of variable x
  variable products, which fold ``hi * 2^64 + lo`` through the
  constant ``2^64 mod q`` (:func:`two64_mod`), and for the β = 2^64
  companions (:func:`shoup_companion`) the limbs are cut from.  Every
  step is a wrapping ``uint64`` ufunc — no float ever touches a
  residue, so the path is exact wherever numpy is, whatever width the
  platform's extended floats have.

A word above 61 bits would need two uint64 limbs per residue; no
functional path here needs one (the paper's 64-bit sweeps are
model-only).

Every elementwise function accepts ``q`` either as a plain int (one
modulus for the whole array) or as a ``uint64`` ndarray broadcastable
against the operands — typically a ``(k, 1)`` column so a whole stacked
``(k, n)`` residue matrix is reduced against per-row moduli in a single
numpy call.  A caller that knows the width class of its widest
modulus passes it (:func:`mod_mul`'s ``kind``); otherwise dispatch
scans ``q`` for its largest entry.

Add, subtract and negate are branch-free on the uint64 paths: the
candidate that wrapped past ``2^64`` is the large one, so one
``np.minimum`` picks the reduced value (``min(s, s - q)`` after an add,
``min(d, d + q)`` after a subtract) where a compare-and-select would
spend three passes.  Operands must already be reduced below ``q``.

**Lazy primitives** (what the NTT stage loops are built from).  A
twiddle multiply returns a value congruent to ``x·w`` and below
``2q`` (or ``4q``), and leaves the last conditional subtraction to the
caller; :func:`lazy_fold` is that subtraction (``[0, 2m) → [0, m)``, one
``min``), so a butterfly can carry unreduced values across stages and
reduce fully once.  On uint32 arrays (``4q ≤ 2^31``)
:func:`mod_mul_float_lazy` takes the quotient from float64: the int32
view of ``x`` times a stored ``w/q``, truncated back to int32 — the
two casts numpy does fastest — and the remainder ``x·w − q̂·q`` is one
wrapping uint32 difference in ``[0, 2q)``.  uint64 operands use
:func:`mod_mul_shoup62_lazy`, a Shoup multiply at β = 2^62: the limb
decomposition is sized to the operand bound ``x < 2^63 = 2β``, so the
quotient needs three limb products, not four, and lands in
``[0, 4q)``; one fold by ``2q`` gives the butterflies' ``[0, 2q)``, and
:func:`mod_mul_shoup` folds twice.

**Exact float64 arithmetic** (what the four-step NTT of
:mod:`repro.nt.ntt` is built from, for moduli ``q < 2^30`` only).  A
float64 holds every integer below 2^53 exactly, and a sum or product
of such integers that stays below 2^53 is exact whatever the order of
summation — so a BLAS matrix product of 14-bit limbs
(:func:`split_limbs`) against residues is an exact integer matrix
product.  :func:`centred_rem` reduces such a value (``|y| ≤ 2^52``) to
``|r| ≤ q/2 + 2`` from a float quotient estimate; :func:`limb_residue`
recombines a limb pair through it; :func:`mod_mul_centred` multiplies
by a constant ``w < q`` exactly in int64, with the quotient estimated
from ``w/q`` in float64; :func:`centred_fold` brings ``|r| < 1.5q``
into ``[0, q)`` with two :func:`lazy_fold` calls.  Residues enter and
leave as integers; only exact integers ever sit in the floats.

All functions are pure unless handed an ``out`` or told they
overwrite an argument: they never mutate their inputs otherwise.
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
    buffers in the arena free lists.
    """
    import ctypes

    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 26)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 26)  # M_TRIM_THRESHOLD
    except Exception:
        # Best-effort allocator tuning: any failure (no glibc, sandboxed
        # ctypes) must not break import.
        pass


_tune_allocator()

#: numpy's ufunc buffer, in elements (numpy's default is 8192).  numpy
#: copies an operand through this buffer whenever it is a strided view
#: or a broadcast column whose contiguous run is shorter than the buffer
#: — every NTT stage's ``(k, blocks, 1, t)`` half blocks against their
#: twiddle and modulus columns, and the ``(k, 1)`` modulus columns of the
#: pointwise, fold and rescale kernels.  Copying in 1024-element chunks
#: instead of 8192 took a ``(10, 4096)`` forward NTT from ~1.42 to
#: ~1.03 ms; 128-coefficient rows, shorter than either buffer, do not
#: move (DESIGN.md Sec. 5).  Exact: the buffer only changes how numpy
#: chunks an iteration, and every residue kernel is integer arithmetic.
#: numpy keeps the size in a context variable, so it holds in the
#: context that imports this module and in asyncio tasks created from
#: it; a new thread starts at numpy's default and computes the same bits
#: at the old speed.
UFUNC_BUFSIZE = 1024
np.setbufsize(UFUNC_BUFSIZE)

#: Every modulus lies below this bound: a residue is one uint64 word
#: and the wide path's lazy values (``< 4q``) stay below 2^63.
_MODULUS_LIMIT = 1 << 61
#: Below this bound products of two residues fit in uint64 directly.
_NARROW_THRESHOLD = 1 << 31
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MASK31 = np.uint64(0x7FFFFFFF)
_SHIFT31 = np.uint64(31)
_U64_MAX = (1 << 64) - 1


def backend_kind(q: int) -> str:
    """Which of the two word classes serves modulus ``q``.

    ``"narrow"`` (``q < 2^31``: products fit uint64) or ``"wide"``
    (``q < 2^61``: 31-bit-limb Shoup reduction).  Rows whose moduli
    share a kind can be stacked into one matrix and processed by a
    single vectorized call.  Every modulus is validated here: one
    outside ``[2, 2^61)`` raises a :class:`ParameterError` naming it.
    """
    if not 2 <= q < _MODULUS_LIMIT:
        raise ParameterError(f"modulus {q} outside [2, 2^61)")
    return "narrow" if q < _NARROW_THRESHOLD else "wide"


def _q_arr(q):
    """``q`` as a uint64 scalar, or passed through when already an array."""
    if isinstance(q, np.ndarray):
        return q
    return np.uint64(q)


def _q_kind(q) -> str:
    """:func:`backend_kind` of the largest modulus represented by ``q``."""
    return backend_kind(int(q.max()) if isinstance(q, np.ndarray) else int(q))


def as_mod_array(values, q: int) -> np.ndarray:
    """Coerce ``values`` to a reduced uint64 residue vector mod ``q``.

    Accepts lists of ints, numpy integer arrays, or object arrays; values
    may be negative or unreduced.  Inexact (float) arrays are rejected:
    a residue that went through float64 has already lost low bits for
    values at or above 2^53, and reducing it would silently corrupt the
    polynomial.  Plain Python sequences never touch float either —
    ``np.asarray([2**63 + 1])`` promotes to float64, so sequences reduce
    through exact Python ints instead.
    """
    backend_kind(q)
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
        return mod_reduce(arr, np.uint64(q))
    if arr.dtype.kind in "iu":
        # Signed inputs: q < 2^61 fits int64 and numpy's % is
        # non-negative for a positive divisor.
        return (arr.astype(np.int64) % np.int64(q)).astype(np.uint64)
    return np.array([int(v) % q for v in arr], dtype=np.uint64)


def mod_reduce(x: np.ndarray, q, out=None) -> np.ndarray:
    """``x mod q``, exactly, for a uint64 array ``x`` and a modulus ``q``
    that is a scalar or a ``(..., k, 1)`` column; ``out`` receives it.

    numpy divides a uint64 row by a stride-0 divisor as a SIMD multiply
    by a precomputed reciprocal, but its ``%`` has no such loop (about
    50 against 267 µs at ``(15, 4096)``), so a row at least
    :data:`UFUNC_BUFSIZE` long takes ``x − (x // q)·q``.  Shorter rows
    reach a column divisor through numpy's buffer copy, where ``//``
    loses that loop, and take ``%``.
    """
    n = x.shape[-1] if x.ndim else 0
    if n < UFUNC_BUFSIZE:
        return np.remainder(x, q, out=out)
    t = np.floor_divide(x, q)
    t *= q
    return np.subtract(x, t, out=t if out is None else out)


def zeros(n: int, q: int) -> np.ndarray:
    """The zero vector of length ``n`` mod ``q``."""
    backend_kind(q)
    return np.zeros(n, dtype=np.uint64)


def _min_into(x, y):
    """``min(x, y)``, written into ``x`` (the caller's own temporary,
    never an input) unless a 0-d sum made it a numpy scalar."""
    if isinstance(x, np.ndarray):
        return np.minimum(x, y, out=x)
    return np.minimum(x, y)


def mod_add(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """``(a + b) mod q`` elementwise (operands reduced)."""
    s = a + b  # < 2^62, no wrap
    return _min_into(s, s - _q_arr(q))  # s - q wraps high iff s < q


def mod_sub(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """``(a - b) mod q`` elementwise (operands reduced)."""
    d = a - b  # wraps high exactly when a < b
    return _min_into(d, d + _q_arr(q))


def mod_neg(a: np.ndarray, q) -> np.ndarray:
    """``(-a) mod q`` elementwise (operand reduced; ``-0`` stays 0)."""
    d = np.negative(a)  # 2^64 - a, or 0
    return _min_into(d, d + _q_arr(q))


def mulhi64(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b`` (any ``a, b < 2^64``).

    Four 32x32 limb products.  Neither middle sum can wrap
    (``(2^32 - 1)^2 + 2^32 - 1 < 2^64``), so the carries into the high
    word fall out of plain shifts.  Accumulates in place.  The wide
    path uses it for the high word of variable x variable products and
    for companions; constant multiplies take the three-product
    :func:`mod_mul_shoup62_lazy`.
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


def shoup_companion(w: np.ndarray, q) -> np.ndarray:
    """``floor(w * 2^64 / q)`` for a uint64 array ``w < q < 2^61``, exactly.

    The precomputed half of a Shoup multiply at β = 2^64, which
    :func:`shoup_limbs` cuts the β = 2^62 limbs from.  It is vectorized
    without a division per entry: with ``b`` the bit length of ``q``
    and ``m = floor(2^(63+b) / q)`` (one Python-int division per
    *modulus*), ``floor(w * m / 2^(b-1))`` undershoots the quotient by
    at most 2; the wrapped remainder ``-est * q`` then says by how much.
    """
    qa = _q_arr(q)
    b = _per_modulus(q, int.bit_length)
    m = _per_modulus(q, lambda v: min((1 << (63 + v.bit_length())) // v, _U64_MAX))
    # The 128-bit product w * m, shifted right by b - 1 (fits 64 bits).
    est = (mulhi64(w, m) << (np.uint64(65) - b)) | (w * m >> (b - np.uint64(1)))
    r = np.negative(est * qa)  # w * 2^64 - est * q, in [0, 3q)
    return est + r // qa


def shoup_limbs(w: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """The β = 2^62 companion ``w′ = floor(w * 2^62 / q) < 2^62`` of a
    uint64 array ``w < q < 2^61``, split into the 31-bit limbs
    ``(w′ >> 31, w′ & (2^31 - 1))`` that :func:`mod_mul_shoup62_lazy`
    multiplies by.  ``w′`` is the β = 2^64 companion shifted right by
    two (``floor(floor(a) / 4) = floor(a / 4)``).
    """
    c = shoup_companion(w, q) >> np.uint64(2)
    return c >> _SHIFT31, c & _MASK31


def two64_mod(q):
    """``(2^64 mod q, its Shoup limbs)`` per modulus, in ``q``'s shape.

    The constant that folds the high word of a 128-bit product back
    under ``q`` (:func:`_mulmod_wide`).
    """
    r64 = _per_modulus(q, lambda v: (1 << 64) % v)
    c = _per_modulus(q, lambda v: ((1 << 64) % v << 62) // v)
    return r64, (c >> _SHIFT31, c & _MASK31)


#: The factor :func:`float_quotient` nudges ``w/q`` down by (exact in
#: float64), so that a float quotient estimate never exceeds the true one.
_NUDGE = 1.0 - 2.0**-50


def float_quotient(w: np.ndarray, q) -> np.ndarray:
    """The float64 constant :func:`mod_mul_float_lazy` multiplies by:
    ``w/q`` nudged down by the factor ``1 − 2^-50``, for ``w < q``
    (``w`` and ``q`` integer arrays or ints, broadcast).
    """
    return np.true_divide(
        w, q, dtype=np.float64  # fhelint: ok[dtype-routing] estimates a quotient
    ) * _NUDGE


def mod_mul_float_lazy(x: np.ndarray, w, w_over_q, q, out=None) -> np.ndarray:
    """``x·w − q̂·q``: congruent to ``x * w`` mod ``q`` and in ``[0, 2q)``,
    for a uint32 constant ``w < q < 2^31`` and any uint32 ``x < 2^31``,
    with the quotient ``q̂`` estimated in float64.

    ``w_over_q`` is ``w``'s :func:`float_quotient`.  ``q̂`` is the
    float64 product of the int32 view of ``x`` (exact: ``x < 2^31``)
    and ``w_over_q``, truncated to int32.  With ``u = 2^-53`` the
    stored constant is ``(w/q)(1 − 2^-50)(1 + δ1)(1 + δ2)`` and the
    product adds a third factor ``(1 + δ3)``, every ``|δ| ≤ u``, so the
    estimate is ``(x·w/q)·f`` with ``1 − 2^-49 < f ≤ (1 − 2^-50)(1 + u)^3
    < 1``:

    - it never exceeds ``x·w/q`` (equal only at ``x·w = 0``, where both
      are 0), so ``q̂ ≤ ⌊x·w/q⌋`` and the remainder ``r = x·w − q̂·q`` is
      not negative, even at the exact multiples ``x ∈ {q, 2q, 3q}``
      (there, for ``w > 0``, ``q̂`` is one short and ``r = q``);
    - it is short of ``x·w/q < x < 2^31`` by less than
      ``2^31 · 2^-49 = 2^-18``, so truncation loses less than
      ``1 + 2^-18`` and ``r < (1 + 2^-18)·q < 2q``.

    ``q̂ < 2^31`` fits int32, and ``r < 2q < 2^32``, so the wrapping
    uint32 difference of ``x·w`` and ``q̂·q`` is ``r`` exactly.  The
    caller owns the last conditional subtraction (:func:`lazy_fold`) or
    carries the lazy value on.  ``w``, ``w_over_q`` and ``q`` (uint32)
    broadcast against ``x``; ``out`` receives the result (it may be a
    strided view).  uint64 operands take :func:`mod_mul_shoup62_lazy`.
    """
    t = x.view(np.int32).astype(np.float64)  # fhelint: ok[dtype-routing] exact
    t *= w_over_q
    q_hat = t.astype(np.int32).view(np.uint32)
    q_hat *= q
    r = x * w
    return np.subtract(r, q_hat, out=r if out is None else out)


def mod_mul_shoup62_lazy(x: np.ndarray, w, w_limbs, q) -> np.ndarray:
    """``x·w − q̂·q``: congruent to ``x * w`` mod ``q`` and in ``[0, 4q)``,
    for a constant ``w < q < 2^61`` and any uint64 ``x < 2^63``.

    ``w_limbs`` is ``w``'s :func:`shoup_limbs` ``(w_h, w_l)``.  With
    ``x = x_h·2^31 + x_l`` (``x_h < 2^32``, ``x_l < 2^31``) the middle
    sum ``x_h·w_l + x_l·w_h < 2^63 + 2^62`` cannot wrap, and
    ``q̂ = x_h·w_h + (mid >> 31)`` drops only the low product
    ``x_l·w_l``: it is short of ``⌊x·w′/2^62⌋`` by at most 1, which is
    short of ``⌊x·w/q⌋`` by at most 2 because ``x < 2·2^62``.  So the
    wrapped difference is the remainder plus at most ``3q``, and
    ``4q < 2^63`` keeps it exact.  Three limb products where
    :func:`mulhi64` spends four, and the constant arrives pre-split.
    ``w``, the limbs and ``q`` broadcast against ``x``.
    """
    w_h, w_l = w_limbs
    x_h = x >> _SHIFT31
    x_l = x & _MASK31
    mid = x_h * w_l
    # x's own temporaries take the other products, unless the constants
    # widen the result (a column against one row).
    fits = mid.shape == x.shape
    mid += np.multiply(x_l, w_h, out=x_l if fits else None)
    mid >>= _SHIFT31
    mid += np.multiply(x_h, w_h, out=x_h if fits else None)
    mid *= q
    low = np.multiply(x, w, out=x_l if fits else None)
    return np.subtract(low, mid, out=mid)


def lazy_fold(x: np.ndarray, m, out=None) -> np.ndarray:
    """``x`` or ``x - m``, whichever lies in ``[0, m)``, for ``x`` in
    ``[0, 2m)`` — the one conditional subtraction of a lazy butterfly.

    Branch-free: ``x - m`` wraps high exactly when ``x < m``, so
    ``min`` picks the folded value.
    """
    d = x - m
    return np.minimum(x, d, out=d if out is None else out)


def mod_mul_shoup(x: np.ndarray, w, w_limbs, q) -> np.ndarray:
    """``x * w mod q`` for a constant ``w < q < 2^61`` with its
    :func:`shoup_limbs`: :func:`mod_mul_shoup62_lazy` and the two folds
    that finish it.

    ``x`` is a uint64 array and need *not* be reduced (any
    ``x < 2^63``).  ``w``, the limbs and ``q`` broadcast against ``x``
    (scalars, per-row ``(k, 1)`` columns).
    """
    qa = _q_arr(q)
    r = mod_mul_shoup62_lazy(x, w, w_limbs, qa)
    lazy_fold(r, qa << np.uint64(1), out=r)
    return lazy_fold(r, qa, out=r)


#: Bits in the low limb of a four-step DFT matrix entry (:func:`split_limbs`).
LIMB_BITS = 14


def split_limbs(w: np.ndarray) -> np.ndarray:
    """``w = lo + 2^14·hi`` for an integer array ``w < 2^30``: the
    float64 limbs ``lo < 2^14`` and ``hi < 2^16``, stacked on a new
    leading axis (``lo`` first), C-contiguous.

    A matrix product of either limb against ``N ≤ 32`` values below
    ``1.5·2^30`` in magnitude has every partial sum below
    ``1.5·2^51 < 2^53``, so BLAS computes it exactly.
    """
    w = w.astype(np.int64)
    lo = np.bitwise_and(w, (1 << LIMB_BITS) - 1)
    limbs = np.stack([lo, np.right_shift(w, LIMB_BITS)])
    return limbs.astype(
        # fhelint: ok[dtype-routing] exact integers below 2^53 in any
        # summation order or BLAS thread count
        np.float64, order="C"
    )


def centred_rem(y: np.ndarray, q, q_inv, out=None) -> np.ndarray:
    """``y − rint(y·q_inv)·q``: congruent to ``y`` mod ``q`` with
    ``|r| ≤ q/2 + 2``, for a float64 array ``y`` of integers with
    ``|y| ≤ 2^52`` and ``q_inv`` the float64 ``1/q``.

    The estimate ``fl(y·fl(1/q))`` is within ``|y/q|·2^-52`` of ``y/q``,
    so ``rint`` misses the nearest integer only when ``y/q`` lies within
    that of a half-integer, and then the remainder it leaves is still
    ``q/2 + |y|·2^-52 ≤ q/2 + 2`` in magnitude.  Every product and
    difference is an integer below 2^53, hence exact.  Callers that
    bound the result by the cruder ``|r| < 1.5q`` (the estimate off by
    one) are covered with room to spare.
    """
    t = np.multiply(y, q_inv)
    np.rint(t, out=t)
    t *= q
    return np.subtract(y, t, out=out)


def limb_residue(lo: np.ndarray, hi: np.ndarray, q, q_inv) -> np.ndarray:
    """``lo + 2^14·hi`` mod ``q``, centred (``|r| ≤ q/2 + 2``), for the
    two float64 limb sums of a :func:`split_limbs` product
    (``|lo| ≤ 2^51``, ``|hi| ≤ 2^52``, ``q < 2^30``).  Overwrites both;
    the result is ``lo``.

    ``hi`` is reduced first (:func:`centred_rem`), so
    ``|lo + 2^14·hi| ≤ 2^51 + 2^14·(q/2 + 2) < 2^52`` is within the
    bound of the final one.
    """
    centred_rem(hi, q, q_inv, out=hi)
    hi *= 1 << LIMB_BITS
    lo += hi
    return centred_rem(lo, q, q_inv, out=lo)


def mod_mul_centred(c: np.ndarray, w, w_over_q, q, out) -> np.ndarray:
    """``c·w − rint(c·(w/q))·q`` into ``out``: congruent to ``c·w`` mod
    ``q`` with ``|r| ≤ q/2 + |c·w|·2^-51 < 0.51q``, for a float64 array
    ``c`` of integers with ``|c| < 1.5q``, an int64 constant
    ``w < q < 2^30`` and ``w_over_q`` its float64 ``w/q`` (``q`` may be
    an integer or an exact float64 array).

    ``c·w`` (``|c·w| < 1.5·2^60``) and the estimate's ``t·q`` are exact
    int64 products, and their difference is as small as the remainder.
    The estimate is within ``|c·w/q|·2^-51`` of ``c·w/q``, so ``rint``
    is off only beside a half-integer, as in :func:`centred_rem`.
    ``out`` (float64; it may be ``c`` itself) takes the result exactly.
    """
    # c holds exact integers: the int64 casts truncate nothing.
    t = np.multiply(c, w_over_q)
    np.rint(t, out=t)
    # t·q in place of t, elementwise: two temporaries, not three.
    tq = np.multiply(t, q, out=t.view(np.int64), dtype=np.int64, casting="unsafe")
    prod = np.multiply(c, w, dtype=np.int64, casting="unsafe")
    return np.subtract(prod, tq, out=out, dtype=np.int64, casting="unsafe")


def centred_fold(r: np.ndarray, q, two_q, out: np.ndarray) -> np.ndarray:
    """The residue in ``[0, q)`` of a float64 array ``r`` of integers with
    ``|r| < 1.5q``, written to the unsigned integer array ``out``
    (``3.5q`` must fit its dtype).

    ``r + 2q`` lies in ``(q/2, 3.5q)``, which two :func:`lazy_fold`
    calls (by ``2q``, then ``q``) bring into ``[0, q)``.  ``q`` and
    ``two_q`` are in ``out``'s dtype and broadcast against it.
    """
    np.add(r, two_q, out=out, casting="unsafe")
    lazy_fold(out, two_q, out=out)
    return lazy_fold(out, q, out=out)


def _mulmod_wide(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """Exact ``a * b mod q`` for two uint64 arrays, ``q < 2^61``.

    ``a * b = hi * 2^64 + lo``: the high word (``< 2^58``) folds
    through ``2^64 mod q`` (one Shoup multiply), the low word takes one
    machine remainder.
    """
    qa = _q_arr(q)
    r64, r64_limbs = two64_mod(q)
    folded = mod_mul_shoup(mulhi64(a, b), r64, r64_limbs, qa)
    low = mod_reduce(a * b, qa)  # fhelint: ok[overflow-hazard] low word
    return mod_add(folded, low, qa)


def mod_mul(a: np.ndarray, b: np.ndarray, q, kind: str | None = None) -> np.ndarray:
    """``(a * b) mod q`` elementwise (exact for both word classes).

    ``kind`` is the :func:`backend_kind` of the widest modulus in ``q``;
    a caller that already knows it (a basis, a kernel dispatch) passes
    it and saves the scan of ``q``.
    """
    if (kind or _q_kind(q)) == "narrow":
        # Narrow: the product is below 2^62.
        return mod_reduce(a * b, _q_arr(q))  # fhelint: ok[overflow-hazard]
    return _mulmod_wide(a, b, q)


def mod_inv(x: int, q: int) -> int:
    """Multiplicative inverse of ``x`` modulo ``q`` (q need not be prime)."""
    x %= q
    g, s, _ = _xgcd(x, q)
    if g != 1:
        raise ParameterError(f"{x} is not invertible modulo {q} (gcd={g})")
    return s % q


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
    backend_kind(q)
    return rng.integers(0, q, size=size, dtype=np.uint64)
