"""Observability layer: spans, metrics, kernel accounting, profiles.

Covers the three contracts DESIGN.md Sec. 9 states:

- **zero-cost-when-off** — hook sites record nothing and the ``span``
  factory returns a shared no-op singleton while ``ACTIVE`` is false,
  and the hot NTT path reaches its kernel through a pinned frame list
  (the wall-clock overhead ratio is the benchmark ladder's to measure);
- **nesting** — a ``map_grid`` call is one span holding one ``task``
  span per grid point, in grid order, and whatever a point records
  nests under its own task;
- **accounting exactness** — the per-kernel cycle attribution sums to
  the simulator's total, profile cache counters equal the runner's, and
  kernel shares sum to 1.0 within 1e-6.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.errors import ParameterError
from repro.obs import core


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test starts and ends with the recorder off and empty."""
    core.disable()
    core.reset()
    yield
    core.disable()
    core.reset()


# ----------------------------------------------------------------------
# Core recorder
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_shared_noop_singleton(self):
        assert obs.span("x") is core.NULL_SPAN
        assert obs.span("y", tag=1) is core.NULL_SPAN
        with obs.span("z"):
            pass
        assert core.take_roots() == []

    def test_nesting_and_take_roots(self):
        core.enable()
        with obs.span("outer", app="lola"):
            with obs.span("inner"):
                pass
            with obs.span("inner2"):
                pass
        [root] = core.take_roots()
        assert root.name == "outer"
        assert root.tags == {"app": "lola"}
        assert [c.name for c in root.children] == ["inner", "inner2"]
        assert root.wall_s >= max(c.wall_s for c in root.children)
        # Drained: a second take sees nothing.
        assert core.take_roots() == []

    def test_exception_unwinds_stack(self):
        core.enable()
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise ValueError("boom")
        [root] = core.take_roots()
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert core.current_span() is None


class TestMetrics:
    def test_counters_accumulate(self):
        core.count("a")
        core.count("a", 2.5)
        assert core.counters() == {"a": 3.5}

    def test_histograms_summarize(self):
        for v in (3.0, 1.0, 2.0):
            core.observe("lat", v)
        assert core.histograms() == {
            "lat": {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}
        }

    def test_reset_clears_everything_but_not_active(self):
        core.enable()
        core.count("a")
        with obs.span("s"):
            pass
        core.reset()
        assert core.counters() == {}
        assert core.take_roots() == []
        assert core.enabled()


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def _tree(name, wall, children=(), t0=0.0):
    return {
        "name": name, "tags": {}, "t0_s": t0, "wall_s": wall,
        "cpu_s": wall, "rss_peak_delta_kb": 0,
        "children": list(children),
    }


class TestExport:
    def test_coverage_leaf_and_partial(self):
        assert obs.coverage(_tree("leaf", 1.0)) == 1.0
        partial = _tree("p", 2.0, [_tree("c", 1.0)])
        assert obs.coverage(partial) == pytest.approx(0.5)
        # Overlapping (parallel) children cap at 1.
        over = _tree("p", 1.0, [_tree("a", 0.8), _tree("b", 0.8)])
        assert obs.coverage(over) == 1.0

    def test_normalized_strips_measurements(self):
        tree = _tree("p", 2.0, [_tree("c", 1.0, t0=0.5)])
        assert obs.normalized(tree) == {
            "name": "p", "tags": {},
            "children": [{"name": "c", "tags": {}, "children": []}],
        }

    def test_chrome_trace_fans_overlapping_siblings_to_lanes(self):
        # Two children overlapping in time must land on distinct tids.
        a = _tree("a", 1.0, t0=0.0)
        b = _tree("b", 1.0, t0=0.5)
        c = _tree("c", 1.0, t0=1.5)  # fits back in lane 0 after `a`
        events = obs.chrome_trace(_tree("root", 3.0, [a, b, c]))
        by_name = {e["name"]: e for e in events}
        assert by_name["a"]["tid"] != by_name["b"]["tid"]
        assert by_name["c"]["tid"] == by_name["a"]["tid"]
        assert all(e["ph"] == "X" for e in events)
        assert by_name["b"]["ts"] == pytest.approx(0.5e6)

    def test_kernel_accounting_none_without_sims(self):
        assert obs.kernel_accounting({}) is None
        assert obs.kernel_accounting({"cache.hit.trace": 3}) is None

    def test_profile_roundtrip_and_schema_check(self, tmp_path):
        core.enable()
        with obs.span("figure/x"):
            core.count("accel.sims")
            core.count("accel.cycles", 100.0)
            core.count("accel.kernel.cycles.ntt", 60.0)
            core.count("accel.kernel.cycles.hbm", 40.0)
        [root] = core.take_roots()
        doc = obs.build_profile(
            "x", root, core.epoch(), core.counters(), core.histograms()
        )
        path = obs.write_profile(tmp_path / "x.profile.json", doc)
        loaded = obs.load_profile(path)
        assert loaded["figure"] == "x"
        shares = loaded["kernel_accounting"]["kernels"]
        assert shares["ntt"]["share"] == pytest.approx(0.6)
        with pytest.raises(ParameterError):
            obs.load_profile(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 999, "span_tree": {}}))
        with pytest.raises(ParameterError):
            obs.load_profile(bad)


# ----------------------------------------------------------------------
# Instrumentation hooks
# ----------------------------------------------------------------------
class TestKernelCounters:
    def test_ntt_hooks_count_invocations_and_elements(self):
        from repro.nt.ntt import forward_rows, inverse_rows
        from repro.schemes.selection import largest_primes_below_word

        moduli = tuple(largest_primes_below_word(64, 28, 2))
        rng = np.random.default_rng(3)
        mat = rng.integers(0, min(moduli), size=(2, 64), dtype=np.uint64)
        inverse_rows(forward_rows(mat, moduli), moduli)
        assert core.counters() == {}  # disabled: nothing recorded
        core.enable()
        inverse_rows(forward_rows(mat, moduli), moduli)
        counters = core.counters()
        assert counters["kernel.ntt.forward"] == 1
        assert counters["kernel.ntt.forward.elems"] == mat.size
        assert counters["kernel.ntt.inverse"] == 1
        assert counters["kernel.ntt.inverse.elems"] == mat.size

    def test_evaluator_hooks_count_ops(self, ctx, rng):
        core.enable()
        values = rng.uniform(-1.0, 1.0, ctx.slots)
        ct = ctx.encrypt(values)
        ctx.evaluator.rescale(ctx.evaluator.multiply(ct, ct))
        counters = core.counters()
        assert counters["op.multiply"] == 1
        assert counters["op.keyswitch"] == 1
        assert counters["op.rescale"] == 1
        assert counters["kernel.base_convert"] >= 1
        assert counters["kernel.rescale"] >= 1
        assert counters["kernel.ntt.forward"] >= 1


class TestSimKernelAccounting:
    def test_kernel_cycles_sum_to_total(self):
        from repro.eval import common

        result = common.simulate("ResNet-20", "BS19", "bitpacker")
        assert result.kernel_cycles  # non-empty attribution
        total = sum(result.kernel_cycles.values())
        assert total == pytest.approx(result.cycles, rel=1e-12)
        shares = result.kernel_shares()
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
        table = result.kernel_table()
        assert {row[0] for row in table} >= set(result.kernel_cycles)

    def test_record_sim_matches_simresult(self):
        from repro.eval import common

        common.clear_memory_caches()
        core.enable()
        result = common.simulate("LogReg", "BS19", "rns-ckks")
        counters = core.counters()
        assert counters["accel.sims"] == 1
        assert counters["accel.cycles"] == pytest.approx(result.cycles)
        for kernel, cycles in result.kernel_cycles.items():
            assert counters[f"accel.kernel.cycles.{kernel}"] == pytest.approx(
                cycles
            )
        acc = obs.kernel_accounting(counters)
        assert acc["sims"] == 1
        assert sum(e["share"] for e in acc["kernels"].values()) == pytest.approx(
            1.0, abs=1e-6
        )


class TestMemoryCacheStats:
    def test_bounded_and_reported(self):
        from repro.eval import common

        stats = common.memory_cache_stats()
        assert set(stats) == {"trace", "chain", "plan", "simulate", "simulate-cpu"}
        for entry in stats.values():
            assert entry["maxsize"] is not None  # satellite: no unbounded lru
        common.clear_memory_caches()
        assert common.memory_cache_stats()["simulate"]["currsize"] == 0


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _traced_square(x):
    """A grid point that records a span of its own (as a traced
    ``eval.common.simulate`` does under the ladder's wrappers)."""
    with obs.span("point", x=x):
        return x * x


class TestMapGridSpans:
    def test_one_task_span_per_point_holding_what_it_records(self):
        from repro.eval import runner

        core.enable()
        calls = [{"x": i} for i in range(6)]
        assert runner.map_grid(_traced_square, calls) == [
            i * i for i in range(6)
        ]
        [root] = core.take_roots()
        assert root.name == "map_grid"
        assert root.tags == {"tasks": 6}
        assert [c.name for c in root.children] == ["task"] * 6
        assert [c.tags["index"] for c in root.children] == list(range(6))
        for index, task in enumerate(root.children):
            [point] = task.children
            assert (point.name, point.tags) == ("point", {"x": index})
            assert task.wall_s >= point.wall_s

    def test_task_histogram_recorded(self):
        from repro.eval import runner

        core.enable()
        calls = [{"x": i} for i in range(6)]
        assert runner.map_grid(_square, calls) == [i * i for i in range(6)]
        hist = core.histograms()["runner.task_seconds"]
        assert hist["count"] == 6

    def test_disabled_run_records_nothing(self):
        from repro.eval import runner

        results = runner.map_grid(_square, [{"x": 2}])
        assert results == [4]
        assert core.take_roots() == []
        assert core.histograms() == {}


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------
class TestProfileCli:
    @pytest.fixture()
    def figure_args(self, tmp_path):
        from repro.eval import runner

        previous = runner.active_cache()
        yield [
            "--cache-dir", str(tmp_path / "cache"),
            "--results-dir", str(tmp_path / "results"),
        ]
        runner._ACTIVE = previous

    def test_profile_end_to_end(self, tmp_path, capsys, figure_args):
        """The acceptance criteria, pinned: coverage, counter parity,
        share normalization — on a real figure run."""
        from repro.cli import main

        assert main(["profile", "fig11", *figure_args]) == 0
        path = tmp_path / "results" / "fig11_exec_time_28bit.profile.json"
        doc = obs.load_profile(path)
        assert doc["schema"] == obs.PROFILE_SCHEMA_VERSION
        assert doc["coverage"] >= 0.95
        assert doc["span_tree"]["name"] == "figure/fig11"
        # Kernel attribution: sums to the totals, shares normalize.
        acc = doc["kernel_accounting"]
        assert acc["sims"] == 20
        kernel_sum = sum(e["cycles"] for e in acc["kernels"].values())
        assert abs(kernel_sum - acc["total_cycles"]) <= (
            1e-6 * acc["total_cycles"]
        )
        assert sum(e["share"] for e in acc["kernels"].values()) == (
            pytest.approx(1.0, abs=1e-6)
        )
        assert sum(e["share"] for e in acc["energy"].values()) == (
            pytest.approx(1.0, abs=1e-6)
        )
        # Cache counters mirror the runner's tables exactly, both ways.
        counters = doc["counters"]
        for label, table in (("hit", "hits"), ("miss", "misses")):
            for kind, n in doc["cache"][table].items():
                assert counters.get(f"cache.{label}.{kind}") == n
            for name, value in counters.items():
                prefix = f"cache.{label}."
                if name.startswith(prefix):
                    assert doc["cache"][table].get(name[len(prefix):]) == value
        # Task latency histogram covers the grid.
        assert doc["histograms"]["runner.task_seconds"]["count"] == 20
        # The rendered summary went to stdout; the recorder is off again.
        assert "kernel accounting" in capsys.readouterr().out
        assert not core.enabled()

    def test_obs_report_summary_diff_and_chrome(
        self, tmp_path, capsys, figure_args
    ):
        from repro.cli import main

        assert main(["profile", "fig11", *figure_args]) == 0
        path = str(tmp_path / "results" / "fig11_exec_time_28bit.profile.json")
        capsys.readouterr()
        assert main(["obs-report", path]) == 0
        assert "span coverage" in capsys.readouterr().out
        assert main(["obs-report", path, path]) == 0
        out = capsys.readouterr().out
        assert "profile diff" in out
        assert "1.00x" in out
        chrome = tmp_path / "trace.json"
        assert main(["obs-report", "--chrome-out", str(chrome), path]) == 0
        events = json.loads(chrome.read_text())
        assert events and all(e["ph"] == "X" for e in events)

    def test_obs_report_rejects_bad_input(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.profile.json")
        assert main(["obs-report", missing]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["obs-report", missing, missing, missing]) == 2


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------
@pytest.mark.guard
class TestDisabledOverhead:
    def test_hot_path_frames_bounded_when_hooks_off(self, monkeypatch):
        """With all three hook flags off, ``forward_rows`` reaches the
        stage kernel through a fixed list of Python frames: the hooks
        cost a flag test each, never a call.  (The wall-clock ratio this
        replaces lives in the benchmark ladder's
        ``obs.trace_overhead_ratio``; tier-1 only pins structure.)"""
        import sys

        from repro.analysis import sanitize
        from repro.eval import faults
        from repro.nt.ntt import forward_rows
        from repro.schemes.selection import largest_primes_below_word

        for hooks in (core, sanitize, faults):
            monkeypatch.setattr(hooks, "ACTIVE", False)
        n, k = 64, 3
        moduli = tuple(largest_primes_below_word(n, 28, k))
        mat = np.random.default_rng(11).integers(
            0, min(moduli), size=(k, n), dtype=np.uint64
        )
        calls = []

        def profiler(frame, event, arg):
            if event == "call":
                calls.append(
                    (frame.f_globals.get("__name__"), frame.f_code.co_name)
                )

        forward_rows(mat, moduli)  # build the tables
        sys.setprofile(profiler)
        try:
            forward_rows(mat, moduli)
        finally:
            sys.setprofile(None)
        kernel = ("repro.nt.ntt", "_forward_stages")
        # The moduli-tuple generator resumes once per modulus; one frame.
        path = [c for c in calls[: calls.index(kernel) + 1] if c[1] != "<genexpr>"]
        assert path == [
            ("repro.nt.ntt", "forward_rows"),
            ("repro.nt.ntt", "forward"),
            ("repro.nt.ntt", "_check"),
            ("repro.backends", "ntt_forward"),
            kernel,
        ]

    def test_disabled_hooks_allocate_nothing(self):
        # The structural half of the zero-cost claim: no span objects,
        # no counter entries, same singleton every call.
        spans = {id(obs.span(f"s{i}")) for i in range(100)}
        assert spans == {id(core.NULL_SPAN)}
        assert core.counters() == {}
