"""Homomorphic polynomial evaluation tests."""

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.polyeval import (
    chebyshev_fit,
    eval_chebyshev,
    eval_power_basis,
    reference_chebyshev,
)
from repro.errors import ParameterError
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from tests.conftest import make_values


@pytest.fixture(scope="module")
def deep_ctx():
    """A deeper chain for higher-degree polynomials."""
    chain = plan_bitpacker_chain(
        n=256, word_bits=28, level_scale_bits=30.0, levels=10,
        base_bits=40.0, ks_digits=2,
    )
    return CkksContext(chain, seed=41)


class TestPowerBasis:
    def test_degree_one(self, ctx, rng):
        a = make_values(ctx, rng)
        ct = eval_power_basis(ctx.evaluator, ctx.encrypt(a), [0.5, 2.0])
        assert ctx.precision_bits(ct, 2.0 * a + 0.5) > 9

    def test_degree_three_sigmoid(self, ctx, rng):
        """The HELR sigmoid: 0.5 + 0.25x - x^3/48."""
        a = make_values(ctx, rng)
        coeffs = [0.5, 0.25, 0.0, -1.0 / 48.0]
        ct = eval_power_basis(ctx.evaluator, ctx.encrypt(a), coeffs)
        want = 0.5 + 0.25 * a - a**3 / 48.0
        assert ctx.precision_bits(ct, want) > 9

    def test_zero_polynomial_rejected(self, ctx, rng):
        ct = ctx.encrypt(make_values(ctx, rng))
        with pytest.raises(ParameterError):
            eval_power_basis(ctx.evaluator, ct, [1.0])

    def test_consumes_degree_levels(self, ctx, rng):
        a = make_values(ctx, rng)
        enc = ctx.encrypt(a)
        out = eval_power_basis(ctx.evaluator, enc, [0.1, 0.2, 0.3, 0.4])
        assert out.level == enc.level - 3


class TestChebyshev:
    def test_t2_exact(self, ctx, rng):
        a = make_values(ctx, rng)
        # T_2 = 2x^2 - 1 alone: coeffs (0, 0, 1).
        ct = eval_chebyshev(ctx.evaluator, ctx.encrypt(a), [0.0, 0.0, 1.0])
        assert ctx.precision_bits(ct, 2 * a * a - 1) > 9

    def test_degree_five(self, deep_ctx, rng):
        a = rng.uniform(-1, 1, deep_ctx.slots)
        coeffs = [0.1, -0.3, 0.2, 0.05, -0.15, 0.08]
        ct = eval_chebyshev(deep_ctx.evaluator, deep_ctx.encrypt(a), coeffs)
        want = reference_chebyshev(coeffs, a)
        assert deep_ctx.precision_bits(ct, want) > 8

    def test_matches_power_basis_for_low_degree(self, ctx, rng):
        """T-basis (0,0,1) == monomial (−1,0,2)."""
        a = make_values(ctx, rng)
        cheb = eval_chebyshev(ctx.evaluator, ctx.encrypt(a), [0.0, 0.0, 1.0])
        mono = eval_power_basis(ctx.evaluator, ctx.encrypt(a), [-1.0, 0.0, 2.0])
        diff = np.max(
            np.abs(ctx.decrypt_real(cheb) - ctx.decrypt_real(mono))
        )
        assert diff < 2.0**-9

    def test_empty_rejected(self, ctx, rng):
        ct = ctx.encrypt(make_values(ctx, rng))
        with pytest.raises(ParameterError):
            eval_chebyshev(ctx.evaluator, ct, [1.0])
        with pytest.raises(ParameterError):
            eval_chebyshev(ctx.evaluator, ct, [1.0, 0.0, 0.0])


@pytest.fixture(scope="module", params=["bitpacker", "rns-ckks"])
def tree_ctx(request):
    """Both schemes, sized for a degree-31 tree: 5 levels + weighted sum."""
    planner = (
        plan_bitpacker_chain if request.param == "bitpacker"
        else plan_rns_ckks_chain
    )
    chain = planner(
        n=128, word_bits=28, level_scale_bits=30.0, levels=7,
        base_bits=40.0, ks_digits=2,
    )
    return CkksContext(chain, seed=43)


def _products(read) -> int:
    return sum(read("op.multiply", "op.square").values())


class TestChebyshevTree:
    @pytest.mark.parametrize("degree", range(1, 32))
    def test_dense_expansion_matches_reference(self, tree_ctx, degree):
        """Every degree the tree splits differently, on both schemes: the
        values agree with the cleartext oracle and ``T_degree`` sits
        exactly ``ceil(log2 degree)`` levels down, plus the weighted sum."""
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(0.05, 0.3, degree + 1) * rng.choice([-1, 1], degree + 1)
        a = rng.uniform(-1, 1, tree_ctx.slots)
        enc = tree_ctx.encrypt(a)
        out = eval_chebyshev(tree_ctx.evaluator, enc, coeffs)
        assert tree_ctx.precision_bits(out, reference_chebyshev(coeffs, a)) > 8
        assert enc.level - out.level == (degree - 1).bit_length() + 1

    def test_odd_degree_27_call_budget(self, tree_ctx, counters):
        """EvalMod's shape: 13 odd T_k above T_1 plus T_2, T_4, T_8, T_16,
        one rescale per product and exactly one for the whole weighted sum."""
        coeffs = np.zeros(28)
        coeffs[1::2] = 0.1
        enc = tree_ctx.encrypt(np.linspace(-1, 1, tree_ctx.slots))
        eval_chebyshev(tree_ctx.evaluator, enc, coeffs)
        assert _products(counters) == 17
        assert counters("op.keyswitch", "op.rescale") == {
            "op.keyswitch": 17, "op.rescale": 18,
        }

    @pytest.mark.parametrize(
        "k, products",
        [
            (1, 0),
            (16, 4),  # T_2, T_4, T_8, T_16
            (5, 4),  # T_2, T_4 and T_3 for T_5 = 2·T_4·T_1 − T_3
            (27, 8),  # T_2..T_16, then T_3, T_5, T_11 = 2·T_8·T_3 − T_5, T_27
        ],
    )
    def test_single_term_builds_only_its_dependencies(
        self, tree_ctx, counters, k, products
    ):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 0.5
        a = np.linspace(-1, 1, tree_ctx.slots)
        out = eval_chebyshev(tree_ctx.evaluator, tree_ctx.encrypt(a), coeffs)
        assert _products(counters) == products
        assert tree_ctx.precision_bits(out, reference_chebyshev(coeffs, a)) > 8


class TestChebyshevFit:
    def test_fits_sine(self):
        coeffs = chebyshev_fit(np.sin, 11)
        xs = np.linspace(-1, 1, 100)
        err = np.max(np.abs(reference_chebyshev(coeffs, xs) - np.sin(xs)))
        assert err < 1e-9

    def test_interval_rescaling(self):
        coeffs = chebyshev_fit(np.exp, 13, interval=(0.0, 2.0))
        xs = np.linspace(-1, 1, 50)
        target = np.exp((xs + 1.0))
        err = np.max(np.abs(reference_chebyshev(coeffs, xs) - target))
        assert err < 1e-6
