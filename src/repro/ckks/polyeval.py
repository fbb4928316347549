"""Homomorphic polynomial evaluation.

Activation functions, sigmoid approximations, and bootstrapping's
modular-reduction step are all polynomial evaluations on ciphertexts
(paper Sec. 5's workloads).  :func:`eval_chebyshev` evaluates them by
baby-step/giant-step in the Chebyshev basis: the polynomial is divided
by power-of-two ``T_G`` (Chebyshev long division) down to low-degree
leaves, with the ``T_k`` built as a product tree (``T_{a+b} =
2·T_a·T_b - T_{a-b}``).  Depth is ``⌈log2 degree⌉ + 1`` and a degree-27
odd expansion takes 10 ciphertext products; numerically well
conditioned on [-1, 1] for the higher degrees EvalMod-style
approximations need.

It handles level alignment internally (operands are ``adjust``-ed onto
a common level before each multiply), so it exercises exactly the
level-management machinery the paper redesigns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckks.evaluator import Evaluator


def _align(ev: "Evaluator", a: Ciphertext, b: Ciphertext):
    """Bring two ciphertexts to the lower of their two levels."""
    level = min(a.level, b.level)
    return ev.adjust(a, level), ev.adjust(b, level)


def _chebyshev_term(
    ev: "Evaluator", basis: dict[int, Ciphertext], k: int
) -> Ciphertext:
    """``T_k`` from the memo ``basis``, building whatever it still lacks."""
    if k not in basis:
        if k % 2 == 0:
            half = _chebyshev_term(ev, basis, k // 2)
            doubled = ev.mul_integer(ev.square_rescale(half), 2)
            basis[k] = ev.sub_plain(doubled, 1.0)
        else:
            a = 1 << (k.bit_length() - 1)
            t_a, t_b = _align(
                ev, _chebyshev_term(ev, basis, a), _chebyshev_term(ev, basis, k - a)
            )
            doubled = ev.mul_integer(ev.multiply_rescale(t_a, t_b), 2)
            # T_{a-b} is up to log2(a) levels above the product: the
            # multi-level adjust lands it on the product's level and scale.
            below = _chebyshev_term(ev, basis, 2 * a - k)
            basis[k] = ev.sub(doubled, ev.adjust(below, doubled.level))
    return basis[k]


def _degree(coeffs: Sequence[float]) -> int:
    """Index of the last non-zero coefficient (0 for a constant)."""
    return max((k for k, c in enumerate(coeffs) if c != 0.0), default=0)


def eval_chebyshev(
    ev: "Evaluator", ct: Ciphertext, cheb_coeffs: Sequence[float]
) -> Ciphertext:
    """Evaluate ``Σ c_k T_k(x)`` for ``x`` in [-1, 1] by baby-step/giant-step.

    For top degree ``d`` with ``m = d.bit_length()``, the baby steps are
    ``T_1 … T_{g-1}`` with ``g = 2^⌈m/2⌉`` and the giant steps the powers
    of two ``T_G ≥ g``, all built by :func:`_chebyshev_term`'s memoised
    product tree (``T_k`` sits ``⌈log2 k⌉`` levels below ``ct``).  The
    polynomial is divided by the largest ``T_G`` not above its degree,
    ``p = q·T_G + r`` (Chebyshev long division: ``q_0 = c_G``,
    ``q_{k-G} = 2c_k`` and ``r_{2G-k} -= c_k`` for ``k > G``), and ``q``
    and ``r`` recursively, down to leaves of degree below ``g``.  A leaf
    is a weighted sum at its deepest term's level with one rescale; a
    constant quotient is a ``mul_plain`` on ``T_G``; siblings meet by
    one ``adjust`` to the lower level.  The result is adjusted to
    ``⌈log2 d⌉ + 1`` levels below ``ct``, the depth every caller plans.
    """
    coeffs = [float(c) for c in cheb_coeffs]
    if len(coeffs) < 2:
        raise ParameterError("need at least a degree-1 expansion")
    d = _degree(coeffs)
    if d == 0:
        raise ParameterError("all non-constant coefficients are zero")
    g = 1 << (d.bit_length() + 1) // 2
    basis: dict[int, Ciphertext] = {1: ct}
    moved: dict[tuple[int, int], Ciphertext] = {}

    def down(x: Ciphertext, level: int) -> Ciphertext:
        return x if x.level == level else ev.adjust(x, level)

    def at(k: int, level: int) -> Ciphertext:
        """``T_k`` on ``level``, each move made once."""
        if (k, level) not in moved:
            moved[k, level] = down(_chebyshev_term(ev, basis, k), level)
        return moved[k, level]

    def plus(x: Ciphertext, c0: float) -> Ciphertext:
        return ev.add_plain(x, c0) if c0 else x

    def split(c: list[float]) -> Ciphertext | float:
        deg = _degree(c)
        if deg == 0:
            return c[0]
        if deg < g:
            ks = [k for k in range(1, deg + 1) if c[k] != 0.0]
            bottom = min(_chebyshev_term(ev, basis, k).level for k in ks)
            acc = None
            for k in ks:
                t = ev.mul_plain(at(k, bottom), c[k])
                acc = t if acc is None else ev.add(acc, t)
            return plus(ev.rescale(acc), c[0])
        giant = 1 << (deg.bit_length() - 1)
        r = c[:giant]
        for k in range(giant + 1, deg + 1):
            r[2 * giant - k] -= c[k]
        q = split([c[giant]] + [2.0 * c_k for c_k in c[giant + 1 : deg + 1]])
        t_g = _chebyshev_term(ev, basis, giant)
        if isinstance(q, float):
            prod = ev.rescale(ev.mul_plain(t_g, q))
        else:
            level = min(q.level, t_g.level)
            prod = ev.multiply_rescale(down(q, level), at(giant, level))
        r = split(r)
        if isinstance(r, float):
            return plus(prod, r)
        level = min(prod.level, r.level)
        return ev.add(down(prod, level), down(r, level))

    out = split(coeffs)
    # ``split`` refers to itself: unlinked here, the memos' ciphertexts are
    # freed on return instead of waiting for the cycle collector.
    del split
    return down(out, ct.level - (d - 1).bit_length() - 1)


def chebyshev_fit(fn, degree: int) -> np.ndarray:
    """Chebyshev coefficients of ``fn`` on [-1, 1] (ascending order).

    Thin wrapper over numpy's Chebyshev interpolation; used by EvalMod's
    sine approximation.
    """
    series = np.polynomial.chebyshev.Chebyshev.interpolate(fn, degree)
    return np.asarray(series.coef, dtype=float)
