"""The analytic noise model must upper-bound measured noise, and its
per-level tables and rules must be the textbook expressions.

The rules run in one place, :func:`repro.analysis.absint.verify_trace`,
so every check here reads a verdict's ``noise_margin_bits`` for a short
trace at a chain's ring size and scales."""

import math

import pytest

from repro.analysis.absint import verify_trace
from repro.ckks.noise import join_bits, noise_tables, precision_bits
from repro.rns.sampling import DEFAULT_SIGMA
from repro.trace.program import TraceBuilder
from repro.workloads import workload_traces
from tests.conftest import make_values


def _records(n, scales, *ops):
    """The verdict's records for a trace over ``scales`` (level 0
    first); an op is a ``TraceBuilder`` method name and its arguments."""
    b = TraceBuilder("noise", n=n, base_bits=60.0, level_scale_bits=scales)
    for name, *args in ops:
        getattr(b, name)(*args)
    return verify_trace(b.build()).records


def _margins(n, scales, *ops):
    return [r.noise_margin_bits for r in _records(n, scales, *ops)]


def _chain_scales(chain):
    return [spec.log2_scale for spec in chain.levels]


def _chain_margins(chain, *ops):
    return _margins(chain.n, _chain_scales(chain), *ops)


class TestNoiseModel:
    def test_fresh_estimate_bounds_measurement(self, ctx, rng):
        vals = make_values(ctx, rng)
        measured = ctx.precision_bits(ctx.encrypt(vals), vals)
        [predicted] = _chain_margins(ctx.chain, ("padd", ctx.chain.max_level))
        # Prediction must not promise more precision than measured.
        assert predicted <= measured + 1.0

    def test_fresh_estimate_not_wildly_pessimistic(self, ctx, rng):
        vals = make_values(ctx, rng)
        measured = ctx.precision_bits(ctx.encrypt(vals), vals)
        [predicted] = _chain_margins(ctx.chain, ("padd", ctx.chain.max_level))
        assert predicted > measured - 12.0

    def test_multiply_rescale_chain_bound(self, ctx, rng):
        vals = make_values(ctx, rng) * 0.5
        ct = ctx.encrypt(vals)
        ref = vals.copy()
        top = ctx.chain.max_level
        ops = []
        for level in (top, top - 1):
            ct = ctx.evaluator.square_rescale(ct)
            ref = ref * ref
            ops += [("hmul", level), ("rescale", level)]
        predicted = _chain_margins(ctx.chain, *ops)[-1]
        measured = ctx.precision_bits(ct, ref)
        assert predicted <= measured + 1.0

    def test_add_grows_noise_slightly(self, ctx):
        top = ctx.chain.max_level
        [fresh] = _chain_margins(ctx.chain, ("padd", top))
        [added] = _chain_margins(ctx.chain, ("hadd", top))
        assert 0.0 < fresh - added <= 0.51

    def test_rescale_tracks_level(self, ctx):
        chain = ctx.chain
        [record] = _records(chain.n, _chain_scales(chain),
                            ("rescale", chain.max_level))
        assert record.level == chain.max_level - 1

    def test_adjust_floor_close_to_rescale_floor(self, ctx):
        top = ctx.chain.max_level
        [adj] = _chain_margins(ctx.chain, ("adjust", top, top - 1))
        [res] = _chain_margins(ctx.chain, ("rescale", top))
        assert abs(adj - res) < 2.0


def _scales(bp_chain):
    """A planned bp28 chain's scales and a walked trace's targets."""
    trace = workload_traces(schemes=("bitpacker",))[0]
    return [
        (bp_chain.n, _chain_scales(bp_chain)),
        (trace.n, list(trace.level_scale_bits)),
    ]


class TestTables:
    def test_tables_are_the_textbook_terms(self, bp_chain):
        for n, scales in _scales(bp_chain):
            fresh, floor, ks = noise_tables(n, scales)
            half_log_n = 0.5 * math.log2(n)
            assert len(fresh) == len(floor) == len(ks) == len(scales)
            for level, s in enumerate(scales):
                rounding = half_log_n - 1.5 - s + 2.0
                assert fresh[level] == (
                    math.log2(DEFAULT_SIGMA) + half_log_n + 3.0 - s
                )
                assert floor[level] == rounding
                assert ks[level] == rounding + 1.0

    def test_every_rule_is_the_join_against_a_table(self, bp_chain):
        for n, scales in _scales(bp_chain):
            fresh, floor, ks = noise_tables(n, scales)

            def bits(*ops):
                return _margins(n, scales, *ops)[-1]

            for level, e in enumerate(fresh):
                for ops, err in [
                    ([("padd", level)], e),
                    ([("hadd", level)], join_bits(e, e)),
                    ([("hmul", level)], join_bits(e, ks[level])),
                    ([("hrot", level)], join_bits(e, ks[level])),
                ] + [
                    ([("adjust", level, dst)], join_bits(e, floor[dst]))
                    for dst in range(level)
                ] + ([
                    ([("rescale", level)], join_bits(e, floor[level - 1])),
                    ([("hmul", level), ("rescale", level)],
                     join_bits(join_bits(e, ks[level]), floor[level - 1])),
                ] if level else []):
                    assert bits(*ops) == precision_bits(err), (level, ops)

    @pytest.mark.parametrize("a, b", [(-20.0, -20.0), (-20.0, -31.5), (3.0, -60.0)])
    def test_join_adds_in_quadrature(self, a, b):
        worst, other = max(a, b), min(a, b)
        assert join_bits(a, b) == join_bits(b, a) == (
            worst + 0.5 * math.log2(1.0 + 4.0 ** (other - worst))
        )
        assert join_bits(a, b) == pytest.approx(
            0.5 * math.log2(4.0 ** a + 4.0 ** b)
        )
