"""The kernel boundary of the RNS/CKKS hot paths: five functions.

Every CKKS operation decomposes into these kernels, and every call to
one crosses this module — it is where kernel calls reach the
instrumentation seam (``kernel.backend.numpy.<kernel>``,
:func:`repro.obs.core.kernel`) and where an engine other than numpy
would have to enter (DESIGN.md Sec. 10 has the admission contract):

- ``ntt_forward`` / ``ntt_inverse`` — the batched negacyclic NTT of a
  ``(k, n)`` residue matrix, or of each matrix of an ``(m, k, n)`` stack
  of sibling polynomials; ``ctx`` is the
  :class:`repro.nt.ntt.NttRowsContext` holding the tables, and row ``i``
  of every matrix is reduced mod ``ctx.moduli[i]``;
- ``bconv_fold`` — the base-conversion digit fold
  ``out[j] = Σ_i stack[i] · weights[j, i] mod dst_moduli[j]`` behind
  :func:`repro.rns.convert.base_convert` (and through it ``scale_down``
  and hybrid keyswitching);
- ``pointwise_mul`` / ``pointwise_mul_acc`` — the NTT-domain Hadamard
  product ``a · b mod q`` and the keyswitch inner loop's fused
  ``acc + a · b mod q`` over a ``(k, n)`` row stack.

``kind`` is the width class of the moduli involved (``narrow`` < 2^31,
``wide`` < 2^61, else ``big``: object rows of Python ints).  All five
are pure — they never mutate their inputs — and exact: a residue is a
number, not an approximation, and the eval harnesses pin byte-identical
artifacts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends import numpy_backend as _numpy
from repro.obs import core as _obs


def active_name() -> str:
    """The engine the kernels run on (stamped on profiles and benches)."""
    return "numpy"


def available_backends() -> tuple[str, ...]:
    return ("numpy",)


def ntt_forward(ctx, mat: np.ndarray) -> np.ndarray:
    out = ctx._forward_stages(mat)
    if _obs.ACTIVE:
        _obs.kernel("backend.numpy.ntt_forward")
    return out


def ntt_inverse(ctx, mat: np.ndarray) -> np.ndarray:
    """Includes the ``n^-1`` scale."""
    out = ctx._inverse_stages(mat)
    if _obs.ACTIVE:
        _obs.kernel("backend.numpy.ntt_inverse")
    return out


def bconv_fold(
    stack: np.ndarray,
    weights: np.ndarray,
    dst_moduli: Sequence[int] | np.ndarray,
    v_bound: int,
    kind: str,
) -> np.ndarray:
    """``stack`` is a ``(kk, n)`` digit matrix with every value below
    ``v_bound``; ``weights`` is ``(m, kk)`` with row ``j`` already
    reduced mod ``dst_moduli[j]``; all destinations share one ``kind``.
    Returns the ``(m, n)`` matrix of fully reduced residues."""
    dst = np.asarray(dst_moduli, dtype=np.uint64)
    out = _numpy.bconv_fold(stack, weights, dst, v_bound, kind)
    if _obs.ACTIVE:
        _obs.kernel("backend.numpy.bconv_fold")
    return out


def pointwise_mul(
    a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
) -> np.ndarray:
    out = _numpy.pointwise_mul(a, b, q_col)
    if _obs.ACTIVE:
        _obs.kernel("backend.numpy.pointwise_mul")
    return out


def pointwise_mul_acc(
    acc: np.ndarray, a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
) -> np.ndarray:
    out = _numpy.pointwise_mul_acc(acc, a, b, q_col)
    if _obs.ACTIVE:
        _obs.kernel("backend.numpy.pointwise_mul_acc")
    return out


__all__ = [
    "active_name",
    "available_backends",
    "bconv_fold",
    "ntt_forward",
    "ntt_inverse",
    "pointwise_mul",
    "pointwise_mul_acc",
]
