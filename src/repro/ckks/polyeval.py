"""Homomorphic polynomial evaluation.

Activation functions, sigmoid approximations, and bootstrapping's
modular-reduction step are all polynomial evaluations on ciphertexts
(paper Sec. 5's workloads).  Two evaluators are provided:

- :func:`eval_power_basis` — Horner's rule in the monomial basis; depth
  equals the degree, one ciphertext multiply per coefficient.  Right for
  the degree-2/3 activations (AESPA, HELR sigmoid).
- :func:`eval_chebyshev` — the Chebyshev basis built as a product tree
  (``T_{a+b} = 2·T_a·T_b - T_{a-b}``), so depth is ``⌈log2 degree⌉ + 1``;
  numerically far better conditioned on [-1, 1] for the higher degrees
  EvalMod-style approximations need.

Both handle level alignment internally (operands are ``adjust``-ed onto a
common level before each multiply), so they exercise exactly the level-
management machinery the paper redesigns.
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


def eval_power_basis(
    ev: "Evaluator", ct: Ciphertext, coeffs: Sequence[float]
) -> Ciphertext:
    """Evaluate ``c0 + c1 x + ... + cd x^d`` by Horner's rule.

    ``coeffs`` in ascending order.  Consumes ``deg`` levels.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) < 2:
        raise ParameterError("need at least a degree-1 polynomial")
    # Horner: acc = c_d; acc = acc*x + c_{d-1}; ...
    acc = ev.rescale(ev.mul_plain(ct, coeffs[-1]))
    for c in reversed(coeffs[1:-1]):
        acc = ev.add_plain(acc, c)
        x_here = ev.adjust(ct, acc.level)
        acc = ev.multiply_rescale(acc, x_here)
    return ev.add_plain(acc, coeffs[0])


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


def eval_chebyshev(
    ev: "Evaluator", ct: Ciphertext, cheb_coeffs: Sequence[float]
) -> Ciphertext:
    """Evaluate ``Σ c_k T_k(x)`` for ``x`` in [-1, 1].

    The basis is a memoised product tree: ``T_{2k} = 2·T_k² - 1`` and,
    for odd ``k`` split as ``a + b`` with ``a`` the largest power of two
    below it, ``T_k = 2·T_a·T_b - T_{a-b}``.  Only the ``T_k`` with a
    non-zero coefficient and what they depend on are built, and ``T_k``
    sits ``⌈log2 k⌉`` levels below ``ct``.  The weighted sum runs at the
    deepest of them and rescales once, so a dense degree-``d`` expansion
    consumes ``⌈log2 d⌉ + 1`` levels.
    """
    coeffs = [float(c) for c in cheb_coeffs]
    if len(coeffs) < 2:
        raise ParameterError("need at least a degree-1 expansion")
    basis: dict[int, Ciphertext] = {1: ct}
    terms = [
        (c, _chebyshev_term(ev, basis, k))
        for k, c in enumerate(coeffs)
        if k and c != 0.0
    ]
    if not terms:
        raise ParameterError("all non-constant coefficients are zero")
    bottom = min(t_k.level for _, t_k in terms)
    acc = None
    for c, t_k in terms:
        term = ev.mul_plain(ev.adjust(t_k, bottom), c)
        acc = term if acc is None else ev.add(acc, term)
    return ev.add_plain(ev.rescale(acc), coeffs[0])


def chebyshev_fit(fn, degree: int, interval=(-1.0, 1.0)) -> np.ndarray:
    """Chebyshev coefficients of ``fn`` on ``interval`` (ascending order).

    Thin wrapper over numpy's Chebyshev interpolation, rescaled to the
    target interval; used by EvalMod's sine approximation.
    """
    lo, hi = interval

    def scaled(t):
        return fn((t + 1.0) * (hi - lo) / 2.0 + lo)

    series = np.polynomial.chebyshev.Chebyshev.interpolate(scaled, degree)
    return np.asarray(series.coef, dtype=float)


def reference_chebyshev(coeffs: Sequence[float], x: np.ndarray) -> np.ndarray:
    """Cleartext Chebyshev evaluation (test oracle)."""
    return np.polynomial.chebyshev.chebval(x, np.asarray(coeffs, dtype=float))
