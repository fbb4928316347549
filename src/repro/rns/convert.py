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

``base_convert`` demands coefficient form and raises otherwise (a
coefficient's residues are read across rows); ``scale_down`` takes
either form and returns coefficient form — on an NTT-form input its
per-row constants ride the inverse transform; ``scale_up`` and
``drop_moduli`` are row-local and work in either domain.  The
constants of a conversion — CRT digit multipliers, ``1/q``, the fold
weights, the ``P^{-1}`` that finishes a scale-down — live in one cached
:class:`repro.rns.basis.ConversionTable` per basis pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

import repro.backends as _backends
from repro.errors import ParameterError
from repro.nt import modmath
from repro.obs import core as _obs
from repro.rns.basis import (
    ConversionTable,
    RnsBasis,
    ScalarColumn,
    conversion_table,
    extension,
    restriction,
)
from repro.rns.poly import COEFF, NTT, RnsPolynomial, to_domain


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
    digit stack is uint64; a digit is below its source modulus, hence
    below 2^61, and every fold takes digits unreduced.  Every
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
    # v_i = x_i * (Q/q_i)^{-1} mod q_i : the CRT decomposition digits.
    digits = poly.rowwise_scalar_mul(table.digit).mat
    out = _fold(digits, table, table.weights, poly.mat, exact)
    return RnsPolynomial(table.dst, out, COEFF)


def _fold(
    digits: np.ndarray,
    table: ConversionTable,
    weights: np.ndarray,
    source: np.ndarray,
    exact: bool = True,
) -> np.ndarray:
    """``Σ_i v_i · weights[:, i]`` over the CRT ``digits`` of a
    ``table.src`` matrix (``source``, held to the residue rule by the
    sanitizer), plus ``α`` times the ``-Q`` column ``weights[:, k]``
    when ``exact``: the fold of :func:`base_convert`, fully reduced mod
    each destination.  A batch of digit matrices, ``(..., k, n)``, folds
    as one ``(k, B·n)`` stack: the fold works column by column."""
    src, dst = table.src, table.dst
    k, n = digits.shape[-2:]
    # (k, B, n): a view of one matrix, a strided one of a batch.
    columns = digits.reshape(-1, k, n).swapaxes(0, 1)
    stack = np.empty((k + 1 if exact else k, *columns.shape[1:]), dtype=np.uint64)
    stack[:k] = columns
    flat = stack.reshape(len(stack), -1)
    if exact:
        # One BLAS pass: α = round(Σ v_i / q_i) ∈ [0, k], small and
        # non-negative; it folds against the weights' last column.
        alpha = table.q_inv @ flat[:k].astype(np.float64)
        flat[k] = np.rint(alpha).astype(np.int64)
    else:
        weights = weights[:, :k]
    out = _backends.bconv_fold(flat, weights, dst.moduli, max(src.moduli), dst.kind)
    if _obs.ACTIVE:
        # Volume: source digits read plus destination residues produced,
        # the CRB FU's (src + dst) x n element traffic.
        _obs.kernel("base_convert", (k + dst.size) * flat.shape[1], src.moduli,
                    (("base_convert input", source),))
    if digits.ndim == 2:
        return out
    return out.reshape(dst.size, -1, n).swapaxes(0, 1).reshape(
        *digits.shape[:-2], dst.size, n
    )


def scale_up(poly: RnsPolynomial, new_moduli: Sequence[int]) -> RnsPolynomial:
    """Paper Listing 3: grow the basis by ``new_moduli``.

    Multiplies every residue by ``K = Π new_moduli`` and appends zero rows
    for the new moduli (``x*K ≡ 0`` mod each new modulus).  The encrypted
    value, scale, and noise all grow by exactly ``K``; the caller accounts
    for the scale.  Works in either domain.
    """
    grown, k_col = extension(poly.basis, tuple(int(q) for q in new_moduli))
    mat = np.zeros((*poly.batch, grown.size, grown.n), dtype=np.uint64)
    mat[..., : poly.basis.size, :] = poly.rowwise_scalar_mul(k_col).mat
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
    exact division by ``P``.  Takes either domain and returns
    coefficient form (:func:`scale_down_all` of one polynomial).
    """
    return scale_down_all([poly], shed_moduli)[0]


def scale_down_all(
    polys: Sequence[RnsPolynomial], shed_moduli: Sequence[int]
) -> list[RnsPolynomial]:
    """:func:`scale_down` of sibling polynomials over one basis, each
    returned in coefficient form.

    The per-row constants come first, all in one multiply: the shed rows
    times ``(P/p_i)^{-1} mod p_i``, which makes them the CRT digits of
    ``[x]_P``, and the kept rows times ``P^{-1}``.  On an NTT-form
    polynomial that multiply rides its inverse transform
    (:func:`repro.rns.poly.to_domain` with a ``scale``), so the NTT-form
    siblings share one scaled inverse and no separate multiply runs; a
    coefficient-form one takes one ``rowwise_scalar_mul``.  The digits
    then fold against the table's ``P^{-1}``-premultiplied weights
    (:attr:`ConversionTable.weights_over_product`) into ``[x]_P·P^{-1}``
    per kept modulus, and one ``mod_sub`` finishes
    ``(x − [x]_P)·P^{-1}`` — the same residues as dividing after the
    subtraction.
    """
    polys = list(polys)
    shed = tuple(int(q) for q in shed_moduli)
    basis = polys[0].basis
    if any(p.basis != basis for p in polys):
        raise ParameterError("scale_down_all takes polynomials over one basis")
    if not shed:
        return [
            p.copy() if p.domain == COEFF else c
            for p, c in zip(polys, to_domain(polys, COEFF))
        ]
    plan = _scale_down_plan(basis, shed)
    moved = iter(
        to_domain([p for p in polys if p.domain == NTT], COEFF, scale=plan.scale)
    )
    table = plan.table
    out = []
    for poly in polys:
        scaled = (
            next(moved).mat if poly.domain == NTT
            else poly.rowwise_scalar_mul(plan.column).mat
        )
        digits = scaled[..., plan.shed_rows, :]
        lifted = _fold(digits, table, table.weights_over_product, digits)
        kept = modmath.mod_sub(
            scaled[..., plan.keep_rows, :], lifted, table.dst.q_col
        )
        out.append(RnsPolynomial(table.dst, kept, COEFF))
        if _obs.ACTIVE:
            _obs.kernel("rescale", scaled.size)
    return out


class _ScaleDownPlan(NamedTuple):
    """What a ``scale_down`` of one basis by one ``P`` reads: the
    conversion ``table`` from the shed moduli to the kept ones; the
    per-row ``scale`` of the basis (``(P/p_i)^{-1}`` on shed rows,
    ``P^{-1}`` on kept ones) and the same as a ready ``column``; and
    the two row sets, shed in ``P``'s order and kept in basis order."""

    table: ConversionTable
    scale: tuple[int, ...]
    column: ScalarColumn
    shed_rows: np.ndarray
    keep_rows: np.ndarray


@lru_cache(maxsize=4096)
def _scale_down_plan(basis: RnsBasis, shed: tuple[int, ...]) -> _ScaleDownPlan:
    keep = _kept(basis, shed)
    if not keep:
        raise ParameterError("scale_down cannot shed the entire basis")
    shed_basis, shed_rows = restriction(basis, shed)
    keep_rows = restriction(basis, keep)[1]
    table = conversion_table(shed_basis, keep)
    per_row = dict(zip(shed, table.digit.col.ravel().tolist()))
    per_row.update(zip(keep, table.inv_product.col.ravel().tolist()))
    scale = tuple(per_row[q] for q in basis.moduli)
    return _ScaleDownPlan(
        table, scale, basis.scalar_column(scale), shed_rows, keep_rows
    )


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
