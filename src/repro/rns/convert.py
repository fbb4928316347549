"""Base conversion and RNS rescaling kernels.

These are the level-management primitives of the paper:

- :func:`base_convert` — fast RNS base conversion.  On the accelerators
  this is the CRB / bConv functional unit (paper Sec. 4.1); in software it
  is the inner loop of Listing 5's ``scaleDown`` and of hybrid
  keyswitching.
- :func:`scale_up` — paper Listing 3: multiply by the product of the new
  moduli and append (zero) residues, growing ``Q`` without changing the
  encrypted values.
- :func:`scale_down` — paper Listing 5: divide by the product of ``k``
  shed moduli in one pass, with round-to-nearest correction.
- :func:`drop_moduli` — the original RNS-CKKS approximate mod-down, which
  simply discards residues (used when adjusting across multiple levels).
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

import repro.backends as _backends
from repro.analysis import sanitize as _sanitize
from repro.errors import ParameterError
from repro.nt import modmath
from repro.obs import core as _obs
from repro.rns.basis import RnsBasis, crt_weights
from repro.rns.poly import COEFF, RnsPolynomial


def base_convert(
    poly: RnsPolynomial, dst_moduli: Sequence[int], exact: bool = True
) -> RnsPolynomial:
    """Convert ``poly`` (coeff domain) to the basis ``dst_moduli``.

    Computes, for each coefficient ``x`` known mod ``Q = Π q_i``, the value
    of its *centered* representative ``x_c ∈ (-Q/2, Q/2]`` mod each
    destination prime.  With ``exact=True`` the CRT overflow multiple
    ``α = round(Σ v_i / q_i)`` is recovered in float64 and subtracted
    (Halevi–Polyakov–Shoup); the result is exact unless a coefficient lies
    within ~2^-50 · Q of ± Q/2, which is never the case for the
    noise-bounded values CKKS stores.  With ``exact=False`` this is the
    classic approximate conversion, off by a small multiple of ``Q``.

    The kernel is matrix-at-a-time with *lazy reduction*: the CRT digits
    ``v_i`` come from one rowwise-scalar multiply, ``α`` from one BLAS
    ``(1/q) @ V`` accumulation, and each narrow destination prime reduces
    the whole ``(k, n)`` digit stack with unreduced uint64 products —
    ``Σ v_i · (q̂_i mod p)`` wraps only after ``⌊2^64 / max_prod⌋`` terms,
    so the sum needs one modulo per chunk instead of three passes per
    term.  The ``-α·Q`` correction rides the same accumulation as an
    extra row.  Wide destinations fold by Shoup multiplication against
    the weights' companions, which takes the digits unreduced;
    big-int destinations keep the per-row fold.

    ``α`` is the one float in the RNS layer and is exempt from the
    integer-only rule the residue kernels obey (fhelint ``dtype-routing``):
    it is a *count* of CRT overflows in ``[0, k]``, never a residue, and
    float64's 2^-53 relative error only matters for coefficients the
    noise bound already excludes.
    """
    if poly.domain != COEFF:
        raise ParameterError("base_convert requires coefficient domain")
    if _sanitize.ACTIVE:
        _sanitize.check_poly(poly, where="base_convert input")
    if _obs.ACTIVE:
        _obs.count("kernel.base_convert")
        # Volume: source digits read plus destination residues produced,
        # the CRB FU's (src + dst) x n element traffic.
        _obs.count(
            "kernel.base_convert.elems",
            (poly.basis.size + len(dst_moduli)) * poly.basis.n,
        )
    src = poly.basis
    n = src.n
    k = src.size
    q_hat_inv, q_hat = crt_weights(src)
    # v_i = x_i * (Q/q_i)^{-1} mod q_i : the CRT decomposition digits.
    v_poly = poly.rowwise_scalar_mul(q_hat_inv)
    v_rows = v_poly.rows
    v_mats = v_poly.group_matrices()
    # The digit rows are already stacked per backend group; concatenate
    # the uint64 groups so every destination sees one (k_u64, n) matrix.
    u64_idx: list[int] = []
    obj_idx: list[int] = []
    u64_mats = []
    for kind, idx, _ in src.backend_groups():
        if kind == "big":
            obj_idx.extend(idx)
        else:
            u64_idx.extend(idx)
            u64_mats.append(v_mats[kind])
    v_u64 = None
    if u64_mats:
        v_u64 = u64_mats[0] if len(u64_mats) == 1 else np.concatenate(u64_mats)
    alpha = alpha_u = None
    if exact:
        acc = np.zeros(n, dtype=np.float64)
        for kind, idx, _ in src.backend_groups():
            if kind == "big":
                for row, i in zip(v_mats[kind], idx):
                    row_f = np.array([float(int(x)) for x in row], dtype=np.float64)
                    acc += row_f / float(src.moduli[i])
            else:
                # One BLAS pass: α += (1/q) @ V over the stacked digits.
                q_inv = np.array(
                    [1.0 / float(src.moduli[i]) for i in idx], dtype=np.float64
                )
                acc += q_inv @ v_mats[kind].astype(np.float64)
        # α = round(Σ v_i / q_i) ∈ [0, k]: small and non-negative.
        alpha = np.rint(acc).astype(np.int64)
        alpha_u = alpha.astype(np.uint64)
    big_q = src.product
    src_order = u64_idx + obj_idx
    src_u64_max = max((src.moduli[i] for i in u64_idx), default=0)
    dst_basis = RnsBasis(n, dst_moduli)
    out_mats: dict = {}
    for kind, idx, _ in dst_basis.backend_groups():
        if kind == "big":
            rows = []
            for i in idx:
                p = dst_basis.moduli[i]
                acc_row = modmath.zeros(n, p)
                for v, h in zip(v_rows, q_hat):
                    term = modmath.mod_scalar_mul(
                        modmath.as_mod_array(v, p), h % p, p
                    )
                    acc_row = modmath.mod_add(acc_row, term, p)
                if alpha is not None:
                    corr = modmath.mod_scalar_mul(
                        modmath.as_mod_array(alpha, p), big_q % p, p
                    )
                    acc_row = modmath.mod_sub(acc_row, corr, p)
                rows.append(acc_row)
            out_mats[kind] = rows
            continue
        # One fold weight matrix per destination group: row j holds the
        # per-source CRT weights q̂_t mod p_j, plus -Q mod p_j when the
        # α correction rides the fold as an extra digit row.
        m = len(idx)
        n_weights = len(src_order) + (1 if alpha_u is not None else 0)
        weights = np.empty((m, n_weights), dtype=np.uint64)
        for j, i in enumerate(idx):
            p = dst_basis.moduli[i]
            row = [q_hat[t] % p for t in src_order]
            if alpha_u is not None:
                row.append((-big_q) % p)
            weights[j] = row
        p_group = [dst_basis.moduli[i] for i in idx]
        if not obj_idx:
            # Destination-independent digit stack — the uint64 source
            # digits plus the (tiny, ≤ k) α row — so the whole group
            # reduces in one backend dispatch.
            if alpha_u is not None:
                kk = len(u64_idx) + 1
                stack = np.empty((kk, n), dtype=np.uint64)
                stack[: len(u64_idx)] = v_u64
                stack[kk - 1] = alpha_u
            else:
                stack = v_u64
            out_mats[kind] = _backends.bconv_fold(
                stack, weights, p_group, src_u64_max, kind
            )
        else:
            # Big-int source rows reduce differently per destination, so
            # each destination folds its own stack (m == 1 dispatches).
            res = np.empty((m, n), dtype=np.uint64)
            for j, i in enumerate(idx):
                p = dst_basis.moduli[i]
                kk = k + (1 if alpha_u is not None else 0)
                stack = np.empty((kk, n), dtype=np.uint64)
                if u64_idx:
                    stack[: len(u64_idx)] = v_u64
                for jj, t in enumerate(obj_idx):
                    stack[len(u64_idx) + jj] = modmath.as_mod_array(
                        v_rows[t], p
                    )
                if alpha_u is not None:
                    stack[kk - 1] = alpha_u
                res[j] = _backends.bconv_fold(
                    stack, weights[j : j + 1], [p], src_u64_max, kind
                )[0]
            out_mats[kind] = res
    # Hand the result over in stacked form so downstream matrix ops
    # (NTT, sub, rowwise multiplies) skip the re-stacking copy.
    return RnsPolynomial._from_group_mats(dst_basis, out_mats, COEFF)


def scale_up(poly: RnsPolynomial, new_moduli: Sequence[int]) -> RnsPolynomial:
    """Paper Listing 3: grow the basis by ``new_moduli``.

    Multiplies every residue by ``K = Π new_moduli`` and appends zero rows
    for the new moduli (``x*K ≡ 0`` mod each new modulus).  The encrypted
    value, scale, and noise all grow by exactly ``K``; the caller accounts
    for the scale.  Works in either domain.
    """
    new_moduli = tuple(int(q) for q in new_moduli)
    for q in new_moduli:
        if poly.basis.contains(q):
            raise ParameterError(f"scale_up modulus {q} already in basis")
    k = prod(new_moduli)
    scaled = poly.scalar_mul(k)
    rows = scaled.rows + [modmath.zeros(poly.basis.n, q) for q in new_moduli]
    return RnsPolynomial(poly.basis.extended(new_moduli), rows, poly.domain)


def scale_down(
    poly: RnsPolynomial, shed_moduli: Sequence[int]
) -> RnsPolynomial:
    """Paper Listing 5: divide by ``P = Π shed_moduli`` and shed those rows.

    Computes ``round(x / P)`` on the underlying centered integers in a
    single multi-modulus pass — the operation the paper maps onto the CRB
    unit so that shedding ``k`` residues costs about the same as shedding
    one (Sec. 4.3).  Rounding to nearest falls out of the centered base
    conversion: the symmetric remainder ``[x]_P`` is subtracted before the
    exact division by ``P``.
    """
    if poly.domain != COEFF:
        raise ParameterError("scale_down requires coefficient domain")
    shed = tuple(int(q) for q in shed_moduli)
    if not shed:
        return poly.copy()
    if _obs.ACTIVE:
        _obs.count("kernel.rescale")
        _obs.count("kernel.rescale.elems", poly.basis.size * poly.basis.n)
    p_prod = prod(shed)
    keep = [q for q in poly.basis.moduli if q not in set(shed)]
    if not keep:
        raise ParameterError("scale_down cannot shed the entire basis")
    # [x]_P (centered remainder), lifted to the kept moduli.
    x_mod_p = poly.restricted(shed)
    lifted = base_convert(x_mod_p, keep, exact=True)
    inv_p = [modmath.mod_inv(p_prod % q, q) for q in keep]
    return poly.restricted(keep).sub(lifted).rowwise_scalar_mul(inv_p)


def drop_moduli(poly: RnsPolynomial, shed_moduli: Sequence[int]) -> RnsPolynomial:
    """Discard residue rows (the original RNS-CKKS approximate mod-down).

    Reinterprets ``x mod Q`` as ``x mod Q'``; exact whenever the centered
    value fits in the smaller modulus, which level management guarantees.
    Does not change scale or value.  Works in either domain.
    """
    shed = set(int(q) for q in shed_moduli)
    keep = [q for q in poly.basis.moduli if q not in shed]
    missing = shed - set(poly.basis.moduli)
    if missing:
        raise ParameterError(f"cannot drop moduli not in basis: {sorted(missing)}")
    return poly.restricted(keep)
