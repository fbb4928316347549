"""Homomorphic EvalMod tests: genuine sine-based modular reduction."""

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.evalmod import (
    EvalModConfig,
    depth_required,
    eval_mod,
    reference_eval_mod,
    sine_coefficients,
)
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain

CONFIG = EvalModConfig(k_range=1, degree=15)


def _ctx(planner):
    chain = planner(
        n=256, word_bits=28, level_scale_bits=30.0,
        levels=depth_required(CONFIG) + 1, base_bits=40.0, ks_digits=2,
    )
    return CkksContext(chain, seed=47)


@pytest.fixture(scope="module", params=["bitpacker", "rns-ckks"])
def emctx(request):
    planner = (
        plan_bitpacker_chain if request.param == "bitpacker"
        else plan_rns_ckks_chain
    )
    return _ctx(planner)


class TestSineApproximation:
    def test_coefficients_fit_target(self):
        coeffs = sine_coefficients(EvalModConfig(k_range=1, degree=17))
        xs = np.linspace(-1, 1, 200)
        got = np.polynomial.chebyshev.chebval(xs, np.asarray(coeffs))
        want = np.sin(2 * np.pi * 1.5 * xs) / (2 * np.pi)
        assert np.max(np.abs(got - want)) < 5e-5

    @pytest.mark.parametrize("degree", [9, 15, 16, 27])
    def test_even_terms_exactly_zero(self, degree):
        """The target is odd; an exact 0.0 is what the evaluator skips."""
        coeffs = sine_coefficients(EvalModConfig(k_range=2, degree=degree))
        assert all(c == 0.0 for c in coeffs[0::2])
        assert all(c != 0.0 for c in coeffs[1::2])

    def test_coefficients_cached(self):
        cfg = EvalModConfig(k_range=2, degree=9)
        assert sine_coefficients(cfg) is sine_coefficients(cfg)


class TestHomomorphicEvalMod:
    def test_removes_integer_part(self, emctx, rng):
        """The defining behaviour: k + eps -> ~eps for small eps."""
        eps = rng.uniform(-0.04, 0.04, emctx.slots)
        ks = rng.integers(-CONFIG.k_range, CONFIG.k_range + 1, emctx.slots)
        values = ks + eps
        ct = eval_mod(emctx.evaluator, emctx.encrypt(values), CONFIG)
        got = emctx.decrypt_real(ct)
        # Compare against the exact sine (isolates homomorphic error from
        # the sine linearization error).
        want = reference_eval_mod(values)
        assert np.max(np.abs(got - want)) < 5e-3
        # And end-to-end: the integer part is gone.
        assert np.max(np.abs(got - eps)) < 5e-3

    def test_zero_maps_to_zero(self, emctx):
        values = np.zeros(emctx.slots)
        ct = eval_mod(emctx.evaluator, emctx.encrypt(values), CONFIG)
        assert np.max(np.abs(emctx.decrypt_real(ct))) < 5e-3

    def test_depth_accounting(self, emctx, rng):
        values = rng.uniform(-1, 1, emctx.slots) * 0.1
        enc = emctx.encrypt(values)
        out = eval_mod(emctx.evaluator, enc, CONFIG)
        used = enc.level - out.level
        assert used == depth_required(CONFIG)

    def test_depth_is_logarithmic(self):
        assert depth_required(EvalModConfig(degree=27)) == 7
        assert depth_required(EvalModConfig(degree=15)) == 6
        assert depth_required(EvalModConfig(degree=63)) == 8

    def test_factors_fold_where_they_are_applied(self, emctx, rng):
        """``eval_mod(x, f_in, f_out) == f_out · sine(f_in · x)``, at no
        extra level: the bootstrap's S/q0 and q0/S ride these."""
        f_in, f_out = 1.0 / 32.0, 24.0
        eps = rng.uniform(-0.04, 0.04, emctx.slots)
        ks = rng.integers(-CONFIG.k_range, CONFIG.k_range + 1, emctx.slots)
        values = (ks + eps) / f_in
        enc = emctx.encrypt(values)
        out = eval_mod(emctx.evaluator, enc, CONFIG, f_in, f_out)
        want = f_out * reference_eval_mod(f_in * values)
        assert np.max(np.abs(emctx.decrypt_real(out) - want)) < f_out * 5e-3
        assert enc.level - out.level == depth_required(CONFIG)

    def test_rejects_tiny_degree(self, emctx, rng):
        enc = emctx.encrypt(np.zeros(emctx.slots))
        with pytest.raises(Exception):
            eval_mod(emctx.evaluator, enc, EvalModConfig(k_range=1, degree=2))
