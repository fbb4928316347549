"""Tests for the experiment runner's grid map and the in-process memos.

``map_grid`` is an ordered in-process map that lets a point's exception
through untouched; the ``lru_cache`` memos in ``eval.common`` make a
point free the second time one process asks for it, so Figs. 15 and 16
price nothing after Fig. 14, and a rerun renders byte-identically.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.eval import common, fig11, fig14, fig15, fig16, runner
from repro.schemes import chain_to_dict


@pytest.fixture()
def cold_memos():
    """Empty memos before and after: the test starts like a new process."""
    common.clear_memory_caches()
    yield
    common.clear_memory_caches()


@pytest.fixture()
def simulations(monkeypatch):
    """The accelerator-model runs ``common.simulate`` really performs."""
    calls = []
    real = common._simulate
    monkeypatch.setattr(
        common, "_simulate", lambda *args: calls.append(args) or real(*args)
    )
    return calls


class TestCachedHarnesses:
    def test_cold_then_warm_identical_rows(self, cold_memos, simulations):
        cold = fig11.run()
        assert len(simulations) == 2 * len(common.WORKLOAD_GRID)
        simulations.clear()
        warm = fig11.run()
        assert simulations == []
        assert warm == cold
        assert fig11.render(warm) == fig11.render(cold)

    def test_warm_fig14_performs_zero_simulations(
        self, cold_memos, simulations
    ):
        """After a fig14 run, fig15, fig16 and fig14 again on the same
        words price nothing: they read fig14's points from the memos.

        Two word sizes show the property; the full ten-word sweep runs in
        the CI ``figures`` job, all 17 experiments in one process.
        """
        words = (28, 64)
        first_render = fig14.render(fig14.run(word_sizes=words))
        assert len(simulations) == 2 * len(words) * len(common.WORKLOAD_GRID)
        simulations.clear()
        fig15.run(word_sizes=words)
        fig16.run(word_sizes=words)
        warm_render = fig14.render(fig14.run(word_sizes=words))
        assert simulations == []
        assert warm_render == first_render


class TestMemoryCacheKeys:
    def test_cpu_point_generates_its_trace_once(self, cold_memos):
        """``lru_cache`` keys a keyword call apart from a positional one:
        the CPU model and the chain planner must ask for the trace the
        same way, or every Fig. 13 point builds it twice."""
        common.simulate_cpu("LogReg", "BS19", "bitpacker", 64)
        assert common.trace_for.cache_info().misses == 1
        assert common.chain_for.cache_info().misses == 1

    def test_equal_constraints_plan_one_chain(self, cold_memos, monkeypatch):
        """The planners read ``(scheme, n, word_bits, level_scale_bits,
        base_bits, ks_digits)`` and nothing else of a workload; two apps
        whose traces agree on those share one plan.  The memo is one of
        the memory caches: clearing them plans again."""
        calls = []
        real = common.plan_bitpacker_chain
        monkeypatch.setattr(
            common, "plan_bitpacker_chain",
            lambda **kw: calls.append(kw) or real(**kw),
        )
        apps = ("ResNet-20", "ResNet-20+AESPA")
        traces = [common.trace_for(a, "BS19", "bitpacker", 28) for a in apps]
        assert traces[0].ops != traces[1].ops
        assert traces[0].level_scale_bits == traces[1].level_scale_bits
        first, second = (
            common.chain_for(a, "BS19", "bitpacker", 28) for a in apps
        )
        assert len(calls) == 1
        assert second is first
        # Each app still has its own chain_for entry.
        assert common.memory_cache_stats()["chain"]["currsize"] == 2
        # A different constraint set is a different plan.
        common.chain_for("LogReg", "BS19", "bitpacker", 28)
        assert len(calls) == 2

        common.clear_memory_caches()
        assert common.memory_cache_stats()["plan"]["currsize"] == 0
        again = common.chain_for(apps[0], "BS19", "bitpacker", 28)
        assert len(calls) == 3
        assert again is not first
        assert chain_to_dict(again) == chain_to_dict(first)


class TestMapGrid:
    def test_preserves_grid_order(self):
        calls = [dict(x=i) for i in range(8)]
        assert runner.map_grid(_echo, calls) == list(range(8))

    def test_point_exception_propagates_after_one_call(self):
        """A failing point is not replayed (the failure is deterministic)
        and its exception is not wrapped, whatever its type."""
        seen = []
        boom = KeyError("point 2")

        def point(x):
            seen.append(x)
            if x == 2:
                raise boom
            return x

        with pytest.raises(KeyError) as caught:
            runner.map_grid(point, [dict(x=i) for i in range(4)])
        assert caught.value is boom
        assert seen == [0, 1, 2]


class TestSerialization:
    """The codecs behind trace files and compile reports are exact."""

    def test_trace_round_trip(self):
        trace = common.trace_for("LogReg", "BS19", "bitpacker", 28)
        from repro.trace.program import HeTrace

        clone = HeTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert clone == trace

    def test_chain_round_trip_preserves_exact_scales(self):
        """Scales are exact Fractions with huge numerators; the decimal
        string pairs ``chain_to_dict`` writes must not lose a bit."""
        for scheme in common.SCHEMES:
            chain = common.chain_for("LogReg", "BS19", scheme, 28)
            doc = json.loads(json.dumps(chain_to_dict(chain)))
            assert len(doc["levels"]) == chain.max_level + 1
            for level, spec in enumerate(doc["levels"]):
                num, den = (int(part) for part in spec["scale"])
                assert Fraction(num, den) == chain.scale_at(level)
                assert len(spec["moduli"]) == chain.residues_at(level)


def _echo(x):
    return x
