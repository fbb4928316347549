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

``base_convert`` and ``scale_down`` demand coefficient form and raise
otherwise (a coefficient's residues are read across rows); ``scale_up``
and ``drop_moduli`` are row-local and work in either domain.  The
constants of a conversion — CRT digit multipliers, ``1/q``, the fold
weights, the ``P^{-1}`` that finishes a scale-down — live in one cached
:class:`repro.rns.basis.ConversionTable` per basis pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

import repro.backends as _backends
from repro.errors import ParameterError
from repro.obs import core as _obs
from repro.rns.basis import ConversionTable, RnsBasis, conversion_table, extension
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

    Demands coefficient form: the conversion reads a coefficient's
    residues across rows, and NTT slots of different primes are values
    at unrelated roots.

    The kernel is matrix-at-a-time with *lazy reduction*: the CRT digits
    ``v_i`` come from one rowwise-scalar multiply, ``α`` from one BLAS
    ``(1/q) @ V`` accumulation, and the fold
    ``out_j = Σ v_i · (q̂_i mod p_j) - α · (Q mod p_j)`` is one
    :func:`repro.backends.bconv_fold` dispatch on the destination kind,
    with the ``-α·Q`` correction riding it as an extra digit row.  The
    digit stack is stored in the destination dtype; a digit is below its
    source modulus, hence below 2^64, so it fits a uint64 stack whatever
    the source kind, and every fold takes digits unreduced.  Every
    constant — digit multipliers, ``1/q``, the fold weights — comes from
    the basis pair's cached :func:`repro.rns.basis.conversion_table`;
    a call builds nothing from Python ints.

    ``α`` is the one float in the RNS layer and is exempt from the
    integer-only rule the residue kernels obey (fhelint ``dtype-routing``):
    it is a *count* of CRT overflows in ``[0, k]``, never a residue, and
    float64's 2^-53 relative error only matters for coefficients the
    noise bound already excludes.
    """
    return convert_by_table(
        poly, conversion_table(poly.basis, tuple(dst_moduli)), exact
    )


def convert_by_table(
    poly: RnsPolynomial, table: ConversionTable, exact: bool = True
) -> RnsPolynomial:
    """:func:`base_convert` against a ready table (``table.src`` is
    ``poly``'s basis) — for a caller that holds the table of a
    conversion it repeats, as a keyswitch key does per digit."""
    if poly.domain != COEFF:
        raise ParameterError("base_convert requires coefficient domain")
    src, dst = table.src, table.dst
    n = src.n
    k = src.size
    # v_i = x_i * (Q/q_i)^{-1} mod q_i : the CRT decomposition digits.
    digits = poly.rowwise_scalar_mul(table.digit).mat
    weights = table.weights
    stack = np.empty((k + 1 if exact else k, n), dtype=dst.dtype)
    stack[:k] = digits
    if exact:
        # One BLAS pass: α = round(Σ v_i / q_i) ∈ [0, k], small and
        # non-negative; it folds against the weights' last column.
        alpha = table.q_inv @ digits.astype(np.float64)
        stack[k] = np.rint(alpha).astype(np.int64)
    else:
        weights = weights[:, :k]
    out = _backends.bconv_fold(
        stack, weights, dst.moduli, max(src.moduli), dst.kind
    )
    if _obs.ACTIVE:
        # Volume: source digits read plus destination residues produced,
        # the CRB FU's (src + dst) x n element traffic.
        _obs.kernel("base_convert", (k + dst.size) * n, src.moduli,
                    (("base_convert input", poly.mat),))
    return RnsPolynomial(dst, out, COEFF)


def scale_up(poly: RnsPolynomial, new_moduli: Sequence[int]) -> RnsPolynomial:
    """Paper Listing 3: grow the basis by ``new_moduli``.

    Multiplies every residue by ``K = Π new_moduli`` and appends zero rows
    for the new moduli (``x*K ≡ 0`` mod each new modulus).  The encrypted
    value, scale, and noise all grow by exactly ``K``; the caller accounts
    for the scale.  Works in either domain.
    """
    grown, k_col = extension(poly.basis, tuple(int(q) for q in new_moduli))
    mat = np.zeros((grown.size, grown.n), dtype=grown.dtype)
    mat[: poly.basis.size] = poly.rowwise_scalar_mul(k_col).mat
    return RnsPolynomial(grown, mat, poly.domain)


def scale_down(
    poly: RnsPolynomial, shed_moduli: Sequence[int]
) -> RnsPolynomial:
    """Paper Listing 5: divide by ``P = Π shed_moduli`` and shed those rows.

    Computes ``round(x / P)`` on the underlying centered integers in a
    single multi-modulus pass — the operation the paper maps onto the CRB
    unit so that shedding ``k`` residues costs about the same as shedding
    one (Sec. 4.3).  Rounding to nearest falls out of the centered base
    conversion: the symmetric remainder ``[x]_P`` is subtracted before the
    exact division by ``P``.  Demands coefficient form, like the base
    conversion inside it.
    """
    if poly.domain != COEFF:
        raise ParameterError("scale_down requires coefficient domain")
    shed = tuple(int(q) for q in shed_moduli)
    if not shed:
        return poly.copy()
    keep = _kept(poly.basis, shed)
    if not keep:
        raise ParameterError("scale_down cannot shed the entire basis")
    # [x]_P (centered remainder), lifted to the kept moduli; the table
    # of that conversion also carries P^{-1} mod each kept modulus.
    x_mod_p = poly.restricted(shed)
    table = conversion_table(x_mod_p.basis, keep)
    lifted = convert_by_table(x_mod_p, table)
    out = poly.restricted(keep).sub(lifted).rowwise_scalar_mul(table.inv_product)
    if _obs.ACTIVE:
        _obs.kernel("rescale", poly.basis.size * poly.basis.n)
    return out


def drop_moduli(poly: RnsPolynomial, shed_moduli: Sequence[int]) -> RnsPolynomial:
    """Discard residue rows (the original RNS-CKKS approximate mod-down).

    Reinterprets ``x mod Q`` as ``x mod Q'``; exact whenever the centered
    value fits in the smaller modulus, which level management guarantees.
    Does not change scale or value.  Works in either domain.
    """
    return poly.restricted(_kept(poly.basis, tuple(int(q) for q in shed_moduli)))


@lru_cache(maxsize=4096)
def _kept(basis: RnsBasis, shed: tuple[int, ...]) -> tuple[int, ...]:
    """``basis``'s moduli without ``shed``, in basis order — cached per
    pair like the restriction and the conversion table it feeds."""
    missing = set(shed) - set(basis.moduli)
    if missing:
        raise ParameterError(f"cannot drop moduli not in basis: {sorted(missing)}")
    return tuple(q for q in basis.moduli if q not in shed)
