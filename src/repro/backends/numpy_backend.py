"""The numpy kernels behind :mod:`repro.backends`: fold and pointwise.

(The two NTT kernels are the stage loops on
:class:`repro.nt.ntt.NttRowsContext`.)

- ``bconv_fold`` is the lazy-reduction digit fold of
  :func:`repro.rns.convert.base_convert` — for narrow destinations one
  ``(m, kk) · (kk, n)`` uint64 matrix product (``np.einsum``) and one
  :func:`~repro.nt.modmath.mod_reduce` whenever ``kk · max(v, p) · p
  < 2^64`` (always, at 28-bit words), else unreduced products
  chunk-summed per destination; for wide ones a Shoup multiply by the
  CRT weights at β = 2^62, all destinations at once, summed lazily and
  reduced once (Shoup takes unreduced digits, so there is no
  pre-reduction pass);
- ``pointwise_mul`` is one broadcast :mod:`repro.nt.modmath` call
  against the ``(k, 1)`` modulus column; ``pointwise_mul_acc`` sums a
  stack of products into one output buffer, term by term — for narrow
  moduli unreduced, with one ``mod_reduce`` per chunk of terms the
  largest modulus allows, for wide ones through lazily folded Shoup
  products.

Call sites go through the dispatch functions of :mod:`repro.backends`,
which count each call.
"""

from __future__ import annotations

import numpy as np

import repro.nt.modmath as modmath


def _narrow_fold(
    stack: np.ndarray, weights: np.ndarray, p: int, v_bound: int
) -> np.ndarray:
    """Lazy-reduction fold for one narrow destination prime.

    ``Σ v_i · h_i ≡ Σ (v_i mod p)(h_i)`` (mod p), and the unreduced
    uint64 products only wrap after ``chunk`` terms, so the whole fold
    is muls + adds + one modulo per chunk instead of three passes per
    term (the shape PR 1 measured).
    """
    pu = np.uint64(p)
    if v_bound and (v_bound - 1) * (p - 1) >= (1 << 64):
        w = modmath.mod_reduce(stack, pu)
        vmax = p - 1
    else:
        w = stack
        vmax = max(v_bound - 1, 0)
    kk = w.shape[0]
    prod_max = max(vmax, p - 1) * (p - 1)
    chunk = max(1, ((1 << 64) - 1) // (prod_max + 1))
    # The pre-reduction guard above caps every product at
    # prod_max < 2^64; chunking bounds the running sums.
    prods = w * weights[:, None]  # fhelint: ok[overflow-hazard]
    total = modmath.mod_reduce(prods[:chunk].sum(axis=0, dtype=np.uint64), pu)
    for c0 in range(chunk, kk, chunk):
        # Each reduced chunk sum is < p < 2^31; a handful of them
        # cannot wrap uint64 before the final reduce.
        part = prods[c0 : c0 + chunk].sum(axis=0, dtype=np.uint64)
        total += modmath.mod_reduce(part, pu, out=part)
    return modmath.mod_reduce(total, pu, out=total)


def _wide_fold(
    stack: np.ndarray, weights: np.ndarray, dst_col: np.ndarray
) -> np.ndarray:
    """Shoup fold for a group of wide destination primes at once.

    One ``(m, n)`` multiply-accumulate per source digit against the
    weight column ``weights[:, i]`` and its companion's limbs; the
    digits may exceed the destinations.  Every digit is below its
    source modulus, hence below 2^61, so each multiplies at β = 2^62
    (:func:`~repro.nt.modmath.mod_mul_shoup62_lazy`, a term in
    ``[0, 4q)``).  Terms accumulate lazily: a sum below ``8q ≤ 2^64``
    folds back under ``4q`` after each add, and reduces fully once.
    """
    w_h, w_l = modmath.shoup_limbs(weights, dst_col)

    def term(i: int) -> np.ndarray:
        limbs = (w_h[:, i : i + 1], w_l[:, i : i + 1])
        return modmath.mod_mul_shoup62_lazy(
            stack[i], weights[:, i : i + 1], limbs, dst_col
        )

    two_q = dst_col << np.uint64(1)
    four_q = two_q << np.uint64(1)
    acc = term(0)
    for i in range(1, stack.shape[0]):
        acc += term(i)  # both in [0, 4q), q < 2^61: no wrap
        modmath.lazy_fold(acc, four_q, out=acc)
    modmath.lazy_fold(acc, two_q, out=acc)
    return modmath.lazy_fold(acc, dst_col, out=acc)


def bconv_fold(
    stack: np.ndarray,
    weights: np.ndarray,
    dst_moduli: np.ndarray,
    v_bound: int,
    kind: str,
) -> np.ndarray:
    dst_col = dst_moduli.reshape(-1, 1)
    if kind == "wide":
        return _wide_fold(stack, weights, dst_col)
    kk = stack.shape[0]
    p_max = int(dst_moduli.max())
    if kk * max(v_bound, p_max) * p_max < 1 << 64:
        # The CRB unit's shape: one matrix product over every
        # destination at once, then one reduction.  A uint64 word sums
        # kk products, each below max(v_bound, p_max) * p_max, so the
        # guard above keeps it under 2^64.  numpy's integer matmul has
        # no BLAS path; einsum's integer loops run it faster (about
        # 0.6x the time at (15, 11, 4096)), with the same sums.
        total = np.einsum("ij,jk->ik", weights, stack)  # fhelint: ok[overflow-hazard]
        return modmath.mod_reduce(total, dst_col, out=total)
    out = np.empty((dst_moduli.shape[0], stack.shape[1]), dtype=np.uint64)
    for j in range(dst_moduli.shape[0]):
        out[j] = _narrow_fold(stack, weights[j], int(dst_moduli[j]), v_bound)
    return out


def pointwise_mul(
    a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
) -> np.ndarray:
    return modmath.mod_mul(a, b, q_col, kind)


def pointwise_mul_acc(
    acc: np.ndarray | None, a, b, q_col: np.ndarray, kind: str
) -> np.ndarray:
    """``acc + Σ_m a[m] · b[m] mod q`` (``acc`` ``None`` reads as zero).

    ``a`` and ``b`` are one ``(k, n)`` term each or stacks of terms:
    ``(m, k, n)`` arrays, or sequences of ``m`` arrays, where
    ``a[m] · b[m]`` broadcasts to ``acc``'s shape.  Every operand is
    reduced.  No ``(m, k, n)`` product is ever built: the first term's
    product is the output buffer, and every later one is multiplied
    into one scratch buffer and added to it.
    """
    if isinstance(a, np.ndarray) and a.ndim == 2:
        a, b = (a,), (b,)
    if kind == "narrow":
        return _narrow_mul_acc(acc, a, b, q_col)
    return _wide_mul_acc(acc, a, b, q_col)


def _narrow_mul_acc(acc, a, b, q_col: np.ndarray) -> np.ndarray:
    """Unreduced uint64 products summed in place, reduced once per chunk.

    Each product is at most ``(p - 1)^2`` for the largest modulus ``p``,
    and a chunk starts from a sum below ``p``, so ``chunk`` products fit
    a word (as in :func:`_narrow_fold`): 256 at 28-bit moduli, 4 just
    below 2^31.
    """
    p = int(q_col.max())
    chunk = ((1 << 64) - p) // ((p - 1) ** 2)
    out = prod = None
    # Narrow operands are below 2^31: each product fits uint64, and
    # chunking bounds the running sum.
    for i, (x, y) in enumerate(zip(a, b), 1):
        if out is None:
            out = np.multiply(x, y)  # fhelint: ok[overflow-hazard]
            if acc is not None:
                out += acc
            continue
        if prod is None:
            prod = np.empty_like(out)
        out += np.multiply(x, y, out=prod)  # fhelint: ok[overflow-hazard]
        if i % chunk == 0:
            modmath.mod_reduce(out, q_col, out=out)
    return modmath.mod_reduce(out, q_col, out=out)


def _wide_mul_acc(acc, a, b, q_col: np.ndarray) -> np.ndarray:
    """Each product ``hi · 2^64 + lo`` as a lazy Shoup multiply of
    ``hi`` by ``2^64 mod q`` (``[0, 4q)``) plus ``lo mod q``; the sum
    stays below ``2q`` between terms (``2q + 5q < 2^64``) and is reduced
    once at the end."""
    r64, r64_limbs = modmath.two64_mod(q_col)
    two_q = q_col << np.uint64(1)
    four_q = two_q << np.uint64(1)
    out = acc
    for x, y in zip(a, b):
        hi = modmath.mulhi64(x, y)
        term = modmath.mod_mul_shoup62_lazy(hi, r64, r64_limbs, q_col)
        # The low word: x * y wraps mod 2^64 by design.
        term += modmath.mod_reduce(x * y, q_col)  # fhelint: ok[overflow-hazard]
        if out is None:
            out = term
        else:
            term += out
            out = term
        modmath.lazy_fold(out, four_q, out=out)
        modmath.lazy_fold(out, two_q, out=out)
    return modmath.lazy_fold(out, q_col, out=out)
