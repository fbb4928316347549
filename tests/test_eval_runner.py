"""Tests for the experiment runner's grid map and the in-process memos.

``map_grid`` is an ordered in-process map that lets a point's exception
through untouched; the ``lru_cache`` memos in ``eval.common`` make a
point free the second time one process asks for it, so Figs. 15 and 16
price nothing after Fig. 14, and a rerun renders byte-identically.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from repro.eval import common, fig11, fig14, fig15, fig16, runner
from repro.schemes import chain_to_dict
from repro.trace.program import content_digest
from repro.workloads.apps import BENCHMARKS, levels_for
from repro.workloads.bootstrap_model import SCHEDULES


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


#: The points one ``model_sweep`` pass prices: Figs. 11/13 at 28 and 64
#: bits and Sec. 6.2's LogReg at 36, as ``(model, app, bs, scheme, word)``.
SWEEP_POINTS = [
    (model, app, bs, scheme, word)
    for scheme in common.SCHEMES
    for app, bs in common.WORKLOAD_GRID
    for model, word in (("accel", 28), ("cpu", 64))
] + [("accel", "LogReg", "BS19", scheme, 36) for scheme in common.SCHEMES]


class TestMemoryCacheKeys:
    def test_cpu_point_generates_its_trace_once(self, cold_memos):
        """The CPU model and the chain planner each ask for the trace;
        one Fig. 13 point walks it once and plans one chain."""
        common.simulate_cpu("LogReg", "BS19", "bitpacker", 64)
        assert common.memory_cache_stats()["trace"]["misses"] == 1
        assert common.chain_for.cache_info().misses == 1

    def test_shared_walks_equal_direct_builds(self, cold_memos):
        """Every sweep point's shared trace is the one its generator
        builds for that point alone, digest included; the 42 points
        share 14 trace objects."""
        traces = []
        for _model, app, bs, scheme, word in SWEEP_POINTS:
            trace = common.trace_for(app, bs, scheme, word)
            direct = BENCHMARKS[app](
                SCHEDULES[bs], n=common.EVAL_N,
                max_log_q=common.EVAL_MAX_LOG_Q, scheme=scheme,
                word_bits=word,
            )
            assert trace == direct
            assert content_digest(trace) == content_digest(direct)
            traces.append(trace)
        assert len(SWEEP_POINTS) == 42
        assert len({id(t) for t in traces}) == 14
        # Recorded when every point walked its own trace.
        digests = " ".join(content_digest(t) for t in traces)
        assert hashlib.sha256(digests.encode()).hexdigest() == (
            "4901aa778fa257906ad5eabb60ff0cbb0b8a3dbc52bfde929c22a77df5de321b")

    def test_sweep_pass_walks_each_schedule_once(
        self, cold_memos, monkeypatch
    ):
        walks = []
        real = common.walk
        monkeypatch.setattr(
            common, "walk", lambda *args: walks.append(args) or real(*args))
        for model, app, bs, scheme, word in SWEEP_POINTS:
            if model == "accel":
                common.simulate(app, bs, scheme, word)
            else:
                common.simulate_cpu(app, bs, scheme, word)
        assert len(walks) == 14
        assert len(set(walks)) == 14
        assert common.memory_cache_stats()["trace"]["misses"] == 14

    def test_different_cadences_never_share_a_trace(self, cold_memos):
        """RNS-CKKS cannot realize SqueezeNet's 35-bit scale at 28 bits,
        so it gets fewer application levels than BitPacker."""
        schedule = SCHEDULES["BS19"]
        bp, rns = (
            common.trace_for("SqueezeNet", "BS19", scheme, 28)
            for scheme in ("bitpacker", "rns-ckks")
        )
        assert (levels_for("SqueezeNet", schedule, scheme="rns-ckks")
                < levels_for("SqueezeNet", schedule, scheme="bitpacker"))
        assert bp is not rns
        assert bp != rns
        assert content_digest(bp) != content_digest(rns)

    def test_clearing_the_memos_walks_again(self, cold_memos):
        first = common.trace_for("LogReg", "BS26", "rns-ckks", 64)
        assert common.trace_for("LogReg", "BS26", "bitpacker", 64) is first
        common.clear_memory_caches()
        assert common.memory_cache_stats()["trace"]["currsize"] == 0
        again = common.trace_for("LogReg", "BS26", "rns-ckks", 64)
        assert again is not first
        assert again == first

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
