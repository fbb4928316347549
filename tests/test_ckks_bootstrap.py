"""Functional bootstrap substitute tests."""

import pytest

from repro.ckks import CkksContext
from repro.ckks.bootstrap import BS19, BS26, FunctionalBootstrapper
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from tests.conftest import TEST_LEVELS, TEST_N, make_values


@pytest.fixture(scope="module", params=["bitpacker", "rns-ckks"])
def boot_chain(request):
    planner = (
        plan_bitpacker_chain if request.param == "bitpacker"
        else plan_rns_ckks_chain
    )
    return planner(
        n=TEST_N, word_bits=28, level_scale_bits=40.0, levels=TEST_LEVELS,
        base_bits=60.0, ks_digits=2,
    )


@pytest.fixture()
def boot_ctx(boot_chain):
    """A 40-bit-scale context of its own.  At the suite's 30-bit scale a
    fresh encryption alone holds ~19 bits, which hides what a 26-bit
    bootstrap preserves; at 40 bits the algorithm's noise is what these
    tests read."""
    return CkksContext(boot_chain, seed=101)


class TestAlgorithms:
    def test_paper_precision_profiles(self):
        assert BS19.precision_bits == 19.0
        assert BS26.precision_bits == 26.0
        assert BS19.stage_scale_bits == (52.0, 55.0, 30.0)
        assert BS26.stage_scale_bits == (54.0, 60.0, 40.0)


class TestFunctionalBootstrap:
    def test_restores_level(self, ctx, rng):
        vals = make_values(ctx, rng)
        ct = ctx.evaluator.adjust(ctx.encrypt(vals), 0)
        boot = FunctionalBootstrapper(ctx, BS26)
        fresh = boot.bootstrap(ct)
        assert fresh.level == ctx.chain.max_level

    def test_preserves_values_to_algorithm_precision(self, boot_ctx, rng):
        ctx = boot_ctx
        vals = make_values(ctx, rng)
        ct = ctx.evaluator.adjust(ctx.encrypt(vals), 0)
        boot = FunctionalBootstrapper(ctx, BS26)
        prec = ctx.precision_bits(boot.bootstrap(ct), vals)
        # Should be near (not much above, not far below) the 26-bit floor.
        assert 18 < prec < 33

    def test_bs19_noisier_than_bs26(self, boot_ctx, rng):
        ctx = boot_ctx
        vals = make_values(ctx, rng)
        ct = ctx.evaluator.adjust(ctx.encrypt(vals), 0)
        p19 = ctx.precision_bits(
            FunctionalBootstrapper(ctx, BS19).bootstrap(ct), vals
        )
        p26 = ctx.precision_bits(
            FunctionalBootstrapper(ctx, BS26).bootstrap(ct), vals
        )
        assert p19 < p26

    def test_enables_unbounded_depth(self, ctx, rng):
        """Fig. 3's arc: compute to level 0, bootstrap, keep computing."""
        vals = make_values(ctx, rng) * 0.5
        ct = ctx.encrypt(vals)
        ref = vals
        boot = FunctionalBootstrapper(ctx, BS26)
        for _ in range(ctx.chain.max_level):
            ct = ctx.evaluator.square_rescale(ct)
            ref = ref * ref
        ct = boot.bootstrap(ct)
        ct = ctx.evaluator.square_rescale(ct)
        ref = ref * ref
        assert ctx.precision_bits(ct, ref) > 10
