"""The numpy kernels behind :mod:`repro.backends`: fold and pointwise.

(The two NTT kernels are the stage loops on
:class:`repro.nt.ntt.NttRowsContext`.)

- ``bconv_fold`` is the lazy-reduction digit fold of
  :func:`repro.rns.convert.base_convert` — for narrow destinations one
  ``(m, kk) @ (kk, n)`` uint64 matrix product and one ``%`` whenever
  ``kk · max(v, p) · p < 2^64`` (always, at 28-bit words), else
  unreduced products chunk-summed per destination; for wide ones a
  Shoup multiply by the CRT weights, all destinations at once (Shoup
  takes unreduced digits, so there is no pre-reduction pass); for big
  ones a Python-int matrix product;
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
    stack: np.ndarray, weights: np.ndarray, dst_col: np.ndarray
) -> np.ndarray:
    """Shoup fold for a group of wide destination primes at once.

    One ``(m, n)`` multiply-accumulate per source digit against the
    weight column ``weights[:, i]`` and its companion; the digits may
    exceed the destinations (any ``x < 2^64`` is a valid Shoup operand).
    """
    shoup = modmath.shoup_companion(weights, dst_col)
    acc = None
    for i in range(stack.shape[0]):
        term = modmath.mod_mul_shoup(
            stack[i], weights[:, i : i + 1], shoup[:, i : i + 1], dst_col
        )
        acc = term if acc is None else modmath.mod_add(acc, term, dst_col)
    return acc


def bconv_fold(
    stack: np.ndarray,
    weights: np.ndarray,
    dst_moduli: np.ndarray,
    v_bound: int,
    kind: str,
) -> np.ndarray:
    dst_col = dst_moduli.astype(stack.dtype, copy=False).reshape(-1, 1)
    if kind == "wide":
        return _wide_fold(stack, weights, dst_col)
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


def pointwise_mul(a: np.ndarray, b: np.ndarray, q_col: np.ndarray) -> np.ndarray:
    return modmath.mod_mul(a, b, q_col)


def pointwise_mul_acc(
    acc: np.ndarray, a: np.ndarray, b: np.ndarray, q_col: np.ndarray
) -> np.ndarray:
    return modmath.mod_add(acc, modmath.mod_mul(a, b, q_col), q_col)
