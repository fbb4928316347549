"""The numpy kernels behind :mod:`repro.backends`: fold and pointwise.

(The two NTT kernels are the stage loops on
:class:`repro.nt.ntt.NttRowsContext`.)

- ``bconv_fold`` is the lazy-reduction digit fold of
  :func:`repro.rns.convert.base_convert` — for narrow destinations one
  ``(m, kk) @ (kk, n)`` uint64 matrix product and one ``%`` whenever
  ``kk · max(v, p) · p < 2^64`` (always, at 28-bit words), else
  unreduced products chunk-summed per destination; for wide ones a
  Shoup multiply by the CRT weights, all destinations at once, summed
  lazily and reduced once (Shoup takes unreduced digits, so there is
  no pre-reduction pass; β = 2^62 unless a source modulus reaches
  2^63); for big ones a Python-int matrix product;
- the pointwise kernels are single broadcast :mod:`repro.nt.modmath`
  calls against the ``(k, 1)`` modulus column.

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
        w = stack % pu
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
    total = prods[:chunk].sum(axis=0, dtype=np.uint64) % pu
    for c0 in range(chunk, kk, chunk):
        # Each reduced chunk sum is < p < 2^31; a handful of them
        # cannot wrap uint64 before the final reduce.
        total += prods[c0 : c0 + chunk].sum(axis=0, dtype=np.uint64) % pu
    return total % pu


def _wide_fold(
    stack: np.ndarray, weights: np.ndarray, dst_col: np.ndarray, v_bound: int
) -> np.ndarray:
    """Shoup fold for a group of wide destination primes at once.

    One ``(m, n)`` multiply-accumulate per source digit against the
    weight column ``weights[:, i]`` and its companion; the digits may
    exceed the destinations.  A digit below 2^63 (every source modulus
    below 2^63) multiplies at β = 2^62 (:func:`~repro.nt.modmath
    .mod_mul_shoup62_lazy`, a term in ``[0, 4q)``); a larger one keeps
    the β = 2^64 multiply, whose term lies in ``[0, 2q)``.  Terms
    accumulate lazily: a sum below ``8q ≤ 2^64`` folds back under
    ``4q`` after each add, and reduces fully once.
    """
    if v_bound <= 1 << 63:
        w_h, w_l = modmath.shoup_limbs(weights, dst_col)

        def term(i: int) -> np.ndarray:
            limbs = (w_h[:, i : i + 1], w_l[:, i : i + 1])
            return modmath.mod_mul_shoup62_lazy(
                stack[i], weights[:, i : i + 1], limbs, dst_col
            )
    else:
        shoup = modmath.shoup_companion(weights, dst_col)

        def term(i: int) -> np.ndarray:
            return modmath.mod_mul_shoup_lazy(
                stack[i], weights[:, i : i + 1], shoup[:, i : i + 1], dst_col
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
    dst_col = dst_moduli.astype(stack.dtype, copy=False).reshape(-1, 1)
    if kind == "wide":
        return _wide_fold(stack, weights, dst_col, v_bound)
    kk = stack.shape[0]
    p_max = int(dst_moduli.max())
    if kind == "big" or kk * max(v_bound, p_max) * p_max < 1 << 64:
        # The CRB unit's shape: one matrix product over every
        # destination at once, then one reduction.  Object rows are
        # Python ints, exact at any width; a uint64 word sums kk
        # products, each below max(v_bound, p_max) * p_max, so the
        # guard above keeps it under 2^64.
        total = weights @ stack  # fhelint: ok[overflow-hazard]
        return total % dst_col
    out = np.empty((dst_moduli.shape[0], stack.shape[1]), dtype=np.uint64)
    for j in range(dst_moduli.shape[0]):
        out[j] = _narrow_fold(stack, weights[j], int(dst_moduli[j]), v_bound)
    return out


def pointwise_mul(
    a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
) -> np.ndarray:
    return modmath.mod_mul(a, b, q_col, kind)


def pointwise_mul_acc(
    acc: np.ndarray, a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
) -> np.ndarray:
    return modmath.mod_add(acc, modmath.mod_mul(a, b, q_col, kind), q_col)
