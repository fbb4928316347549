"""The analytic noise model must upper-bound measured noise, and its
per-level tables and rules must be the textbook expressions."""

import math

import pytest

from repro.ckks.noise import NoiseEstimate, NoiseModel, join_bits
from repro.rns.sampling import DEFAULT_SIGMA
from repro.workloads import workload_traces
from tests.conftest import make_values


@pytest.fixture()
def model(ctx):
    return NoiseModel(ctx.chain)


class TestNoiseModel:
    def test_fresh_estimate_bounds_measurement(self, ctx, model, rng):
        vals = make_values(ctx, rng)
        measured = ctx.precision_bits(ctx.encrypt(vals), vals)
        predicted = model.fresh().expected_precision_bits
        # Prediction must not promise more precision than measured.
        assert predicted <= measured + 1.0

    def test_fresh_estimate_not_wildly_pessimistic(self, ctx, model, rng):
        vals = make_values(ctx, rng)
        measured = ctx.precision_bits(ctx.encrypt(vals), vals)
        predicted = model.fresh().expected_precision_bits
        assert predicted > measured - 12.0

    def test_multiply_rescale_chain_bound(self, ctx, model, rng):
        vals = make_values(ctx, rng) * 0.5
        ct = ctx.encrypt(vals)
        est = model.fresh()
        ref = vals.copy()
        for _ in range(2):
            ct = ctx.evaluator.square_rescale(ct)
            est = model.after_rescale(model.after_multiply(est, est))
            ref = ref * ref
        measured = ctx.precision_bits(ct, ref)
        assert est.expected_precision_bits <= measured + 1.0

    def test_add_grows_noise_slightly(self, model):
        fresh = model.fresh()
        added = model.after_add(fresh, fresh)
        assert 0.0 < added.log2_error - fresh.log2_error <= 0.51

    def test_rescale_tracks_level(self, model):
        est = model.after_rescale(model.fresh())
        assert est.level == model.chain.max_level - 1

    def test_adjust_floor_close_to_rescale_floor(self, model):
        level = model.chain.max_level - 1
        adj = model.after_adjust(model.fresh(), level)
        res = model.after_rescale(model.fresh())
        assert abs(adj.log2_error - res.log2_error) < 2.0


def _models(bp_chain):
    """A planned bp28 chain's model and a trace-level view's."""
    trace = workload_traces(schemes=("bitpacker",))[0]
    return [
        NoiseModel(bp_chain),
        NoiseModel.from_level_scales(trace.n, trace.level_scale_bits),
    ]


class TestTables:
    def test_tables_are_the_textbook_terms(self, bp_chain):
        for model in _models(bp_chain):
            chain = model.chain
            half_log_n = 0.5 * math.log2(chain.n)
            assert len(model.fresh_bits) == chain.max_level + 1
            for level, spec in enumerate(chain.levels):
                s = spec.log2_scale
                floor = half_log_n - 1.5 - s + 2.0
                assert model.fresh_bits[level] == (
                    math.log2(DEFAULT_SIGMA) + half_log_n + 3.0 - s
                )
                assert model.floor_bits[level] == floor
                assert model.keyswitch_bits[level] == floor + 1.0

    def test_every_rule_is_the_join_against_a_table(self, bp_chain):
        for model in _models(bp_chain):
            fresh, floor = model.fresh_bits, model.floor_bits
            ks = model.keyswitch_bits
            for level in range(model.chain.max_level + 1):
                est = model.fresh(level)
                other = model.fresh(0)
                e = est.log2_error
                assert (est.level, e) == (level, fresh[level])
                assert model.after_add(est, other) == NoiseEstimate(
                    join_bits(e, other.log2_error), level)
                assert model.after_multiply(est, est) == NoiseEstimate(
                    join_bits(e, ks[level]), level)
                assert model.after_rotate(est) == NoiseEstimate(
                    join_bits(e, ks[level]), level)
                for dst in range(level):
                    assert model.after_adjust(est, dst) == NoiseEstimate(
                        join_bits(e, floor[dst]), dst)
                if level:
                    assert model.after_rescale(est) == NoiseEstimate(
                        join_bits(e, floor[level - 1]), level - 1)

    @pytest.mark.parametrize("a, b", [(-20.0, -20.0), (-20.0, -31.5), (3.0, -60.0)])
    def test_join_adds_in_quadrature(self, a, b):
        worst, other = max(a, b), min(a, b)
        assert join_bits(a, b) == join_bits(b, a) == (
            worst + 0.5 * math.log2(1.0 + 4.0 ** (other - worst))
        )
        assert join_bits(a, b) == pytest.approx(
            0.5 * math.log2(4.0 ** a + 4.0 ** b)
        )
