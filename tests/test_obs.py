"""Observability layer: the seam, spans, counters, kernel accounting,
profiles.

Covers the contracts DESIGN.md Sec. 9 states:

- **one seam** — the recorder and the sanitizer are two listeners behind
  one switch; each sees what it saw when it had its own, alone or
  together, and the sanitizer's op log is entry for entry what it was;
- **zero-cost-when-off** — hook sites record nothing and the ``span``
  factory returns a shared no-op singleton while the recorder is off,
  and the hot NTT paths reach their kernels through pinned frame lists
  (the wall-clock overhead ratio is the benchmark ladder's to measure);
- **nesting** — a ``map_grid`` call is one span holding one ``task``
  span per grid point, in grid order, and whatever a point records
  nests under its own task;
- **accounting exactness** — the per-kernel cycle attribution sums to
  the simulator's total, and kernel shares sum to 1.0 within 1e-6.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.analysis import sanitize
from repro.cli import write_text_atomic
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
        assert core._CURRENT.get() is None


class TestMetrics:
    def test_counters_accumulate(self):
        core.count("a")  # recorder off: nothing recorded, no guard needed
        assert core.counters() == {}
        core.enable()
        core.count("a")
        core.count("a", 2.5)
        assert core.counters() == {"a": 3.5}

    def test_reset_clears_everything_but_not_active(self):
        core.enable()
        core.count("a")
        with obs.span("s"):
            pass
        core.reset()
        assert core.counters() == {}
        assert core.take_roots() == []
        assert core._RECORDER_ON


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
        assert obs.kernel_accounting({"ntt.forward.calls": 3}) is None

    def test_profile_roundtrip_and_schema_check(self, tmp_path):
        core.enable()
        with obs.span("figure/x"):
            core.count("accel.sims")
            core.count("accel.cycles", 100.0)
            core.count("accel.kernel.cycles.ntt", 60.0)
            core.count("accel.kernel.cycles.hbm", 40.0)
        [root] = core.take_roots()
        doc = obs.build_profile("x", root, core.epoch(), core.counters())
        path = tmp_path / "x.profile.json"
        write_text_atomic(path, json.dumps(doc))
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
        # A schema-1 document (it carried a task-latency summary) is
        # refused by its schema, before any key is read.
        old = dict(doc, schema=1, histograms={})
        bad.write_text(json.dumps(old))
        with pytest.raises(ParameterError, match="profile schema 1"):
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


# ----------------------------------------------------------------------
# The seam: one switch, two listeners
# ----------------------------------------------------------------------
#: What the recorder counts for :func:`_seam_program`: the counters the
#: per-module hooks produced before the seam, less the unread
#: ``op.*.elems``, with a keyswitch's inner product one stacked
#: ``pointwise_mul_acc`` per accumulator (two keyswitches: 4; the
#: rotation's first digit no longer takes two ``pointwise_mul``).
SEAM_PROGRAM_COUNTERS = {
    "kernel.backend.numpy.bconv_fold": 12,
    "kernel.backend.numpy.ntt_forward": 4,
    "kernel.backend.numpy.ntt_inverse": 4,  # encrypt: one stacked inverse
    "kernel.backend.numpy.pointwise_mul": 6,
    "kernel.backend.numpy.pointwise_mul_acc": 4,
    "kernel.base_convert": 12,
    "kernel.base_convert.elems": 5888,
    "kernel.ntt.forward": 4,
    "kernel.ntt.forward.elems": 3456,
    "kernel.ntt.inverse": 4,
    "kernel.ntt.inverse.elems": 3136,
    "kernel.rescale": 8,
    "kernel.rescale.elems": 3712,
    "op.adjust": 1,
    "op.keyswitch": 2,
    "op.multiply": 1,
    "op.rescale": 1,
    "op.rotate": 1,
}


@pytest.fixture(scope="module")
def seam_ctx():
    from repro.ckks import CkksContext
    from repro.schemes import plan_bitpacker_chain

    chain = plan_bitpacker_chain(
        n=64, word_bits=28, level_scale_bits=30.0, levels=3, base_bits=40.0,
        ks_digits=2,
    )
    ctx = CkksContext(chain, seed=5)
    _seam_program(ctx)  # keys and tables are lazy
    return ctx


def _seam_program(ctx):
    """Encrypt, multiply, rescale, rotate, adjust, add at n = 64."""
    ev = ctx.evaluator
    ct = ctx.encrypt(np.linspace(-0.5, 0.5, ctx.slots))
    turned = ev.rotate(ev.rescale(ev.multiply(ct, ct)), 1)
    return ev.add(turned, ev.adjust(ct, turned.level))


@pytest.fixture
def detached():
    """The sanitizer detached, reattached afterwards if it was."""
    was_attached = core.checker() is sanitize
    sanitize.disable()
    yield
    if was_attached:
        sanitize.enable()


def _oplog_digest(entries) -> tuple[int, str]:
    rows = [(e.kind, e.level, round(e.scale_bits, 9)) for e in entries]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return len(rows), hashlib.sha256(blob).hexdigest()[:16]


class TestSeam:
    @pytest.mark.parametrize(
        "recorder,checker",
        [(True, False), (False, True), (True, True), (False, False)],
        ids=["recorder", "sanitizer", "both", "neither"],
    )
    def test_listener_matrix(self, seam_ctx, detached, recorder, checker):
        if recorder:
            core.enable()
        if checker:
            sanitize.enable()
        try:
            assert core.ACTIVE == (recorder or checker)
            with obs.span("program"):
                _seam_program(seam_ctx)
        finally:
            sanitize.disable()
        assert core.counters() == (SEAM_PROGRAM_COUNTERS if recorder else {})
        assert (core.take_roots() != []) == recorder
        assert (sanitize.STATS["checks"] > 0) == checker
        assert sanitize.STATS["violations"] == 0
        if not recorder:
            assert obs.span("x") is core.NULL_SPAN

    def test_disabling_the_recorder_leaves_the_checker_attached(self, detached):
        core.enable()
        sanitize.enable()
        try:
            core.disable()
            assert core.ACTIVE and core.checker() is sanitize
            assert obs.span("x") is core.NULL_SPAN
        finally:
            sanitize.disable()
        assert not core.ACTIVE

    def test_repro_sanitize_attaches_without_a_hot_import(self):
        """Importing one hot module under ``REPRO_SANITIZE=1`` is enough
        for an unreduced residue matrix to be refused."""
        script = (
            "import numpy as np\n"
            "from repro.rns import poly\n"
            "basis = poly.RnsBasis(8, (97, 113))\n"
            "mat = np.zeros((2, 8), dtype=np.uint64)\n"
            "mat[0, 3] = 97\n"
            "try:\n"
            "    poly.RnsPolynomial(basis, mat, poly.COEFF)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        src = str(Path(repro.__file__).parents[1])
        env = dict(os.environ, REPRO_SANITIZE="1", PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.stdout.strip() == "InvariantViolation", done.stderr

    def test_op_log_entry_for_entry(self, bp_ctx, rns_ctx):
        """``(kind, level, scale_bits)`` of every op-log entry, as the
        per-module hooks logged them before the seam (digests): the
        replayed fixture traces, the compiled fixture trace, and
        CoeffToSlot + SlotToCoeff.  The last two run their rows and
        giant steps as batches, which log the serial flow's entries in
        another order: pinned sorted (the serial flow's, sorted), and in
        the batched order, so a reordering still shows."""
        from repro.ckks import CkksContext
        from repro.ckks.homdft import coeff_to_slot, slot_to_coeff
        from repro.schemes import plan_bitpacker_chain
        from repro.trace import TraceExecutor
        from repro.trace.compiler import compile_trace
        from tests.test_trace_compiler import exec_fixture_trace
        from tests.test_trace_execute import _fixture_trace

        def replay(ctx, trace):
            return _oplog_digest(o for _, o in TraceExecutor(ctx).run(trace))

        assert replay(bp_ctx, _fixture_trace()) == (10, "4bd87ce71c1f10b1")
        assert replay(rns_ctx, _fixture_trace()) == (10, "1ed76747a363347f")
        compiled = compile_trace(exec_fixture_trace(), ks_digits=2)
        ctx = CkksContext(compiled.chain, seed=101)
        assert replay(ctx, compiled.trace) == (5, "dde1c66244bda4c5")

        chain = plan_bitpacker_chain(
            n=64, word_bits=28, level_scale_bits=35.0, levels=3,
            base_bits=45.0, ks_digits=2,
        )
        ctx = CkksContext(chain, seed=31)
        ct = ctx.encrypt(np.random.default_rng(42).uniform(-1, 1, ctx.slots))
        with sanitize.record_ops() as log:
            slot_to_coeff(ctx.evaluator, coeff_to_slot(ctx.evaluator, ct))
            entries = sorted(log, key=lambda e: (e.kind, e.level, e.scale_bits))
            assert _oplog_digest(entries) == (420, "04e02b3f36147697")
            assert _oplog_digest(log) == (420, "b97fc0cb2c60707a")


class TestSimKernelAccounting:
    def test_kernel_cycles_sum_to_total(self):
        from repro.eval import common

        result = common.simulate("ResNet-20", "BS19", "bitpacker")
        assert result.kernel_cycles  # non-empty attribution
        total = sum(result.kernel_cycles.values())
        assert total == pytest.approx(result.cycles, rel=1e-12)

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
        assert set(stats) == {
            "trace", "chain", "plan", "word-primes", "min-prime-bits",
            "simulate", "simulate-cpu"}
        for entry in stats.values():
            assert entry["maxsize"] is not None  # satellite: no unbounded lru
        common.clear_memory_caches()
        assert common.memory_cache_stats()["simulate"]["currsize"] == 0
        assert common.memory_cache_stats()["min-prime-bits"]["currsize"] == 0


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

    def test_task_quantiles_known_answer(self):
        tasks = [_tree("task", ms / 1e3) for ms in range(100, 0, -1)]
        quantiles = obs.span_quantiles(_tree("map_grid", 5.05, tasks))
        assert quantiles["map_grid"] == {
            "calls": 1, "p50_s": 5.05, "p90_s": 5.05, "p99_s": 5.05,
        }
        assert quantiles["task"] == {
            "calls": 100, "p50_s": 0.050, "p90_s": 0.090, "p99_s": 0.099,
        }
        # A grid run yields one task sample per point.
        from repro.eval import runner

        core.enable()
        runner.map_grid(_square, [{"x": i} for i in range(6)])
        [root] = core.take_roots()
        tree = obs.span_to_dict(root, core.epoch())
        assert obs.span_quantiles(tree)["task"]["calls"] == 6

    def test_disabled_run_records_nothing(self):
        from repro.eval import runner

        results = runner.map_grid(_square, [{"x": 2}])
        assert results == [4]
        assert core.take_roots() == []
        assert core.counters() == {}


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------
class TestProfileCli:
    @pytest.fixture()
    def figure_args(self, tmp_path):
        return ["--results-dir", str(tmp_path / "results")]

    def test_profile_end_to_end(self, tmp_path, capsys, figure_args):
        """The acceptance criteria, pinned: coverage, kernel attribution,
        share normalization — on a real figure run."""
        from repro.cli import main

        assert main(["figure", "fig11", "--profile", *figure_args]) == 0
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
        # Task latency quantiles cover the grid.
        assert obs.span_quantiles(doc["span_tree"])["task"]["calls"] == 20
        # The rendered summary went to stdout; the recorder is off again.
        out = capsys.readouterr().out
        assert "kernel accounting" in out and "span quantiles" in out
        assert not core._RECORDER_ON

    def test_document_keeps_the_schema_the_profile_command_wrote(
        self, fig11_profile
    ):
        """``figure --profile`` writes what the deleted ``profile``
        command wrote, less the deleted disk cache's ``cache`` section
        and ``cache.*`` counters (schema 3): the same keys and counter
        names otherwise."""
        doc = fig11_profile
        assert doc["schema"] == 3
        assert sorted(doc) == [
            "backend", "counters", "coverage", "created_unix",
            "figure", "kernel_accounting", "memory_caches", "schema",
            "span_tree", "wall_s",
        ]
        assert sorted(doc["span_tree"]) == [
            "children", "cpu_s", "name", "rss_peak_delta_kb", "t0_s", "tags",
            "wall_s",
        ]
        assert sorted(doc["kernel_accounting"]) == [
            "energy", "kernels", "sims", "total_cycles", "total_energy_j",
        ]
        assert sorted(doc["memory_caches"]) == [
            "chain", "min-prime-bits", "plan", "simulate", "simulate-cpu",
            "trace", "word-primes",
        ]
        assert sorted(doc["counters"]) == [
            "accel.cycles", "accel.energy_j", "accel.kernel.cycles.crb",
            "accel.kernel.cycles.hbm", "accel.kernel.energy_j.crb",
            "accel.kernel.energy_j.elementwise", "accel.kernel.energy_j.hbm",
            "accel.kernel.energy_j.ntt", "accel.kernel.energy_j.rf",
            "accel.kernel.energy_j.static", "accel.sims",
        ]

    def test_obs_report_summary_diff_and_chrome(
        self, tmp_path, capsys, figure_args
    ):
        from repro.cli import main

        assert main(["figure", "fig11", "--profile", *figure_args]) == 0
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

    def test_profile_command_is_gone(self, capsys):
        """``profile`` was ``figure --profile`` spelled differently."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "fig11"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    def test_obs_report_rejects_bad_input(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.profile.json")
        assert main(["obs-report", missing]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["obs-report", missing, missing, missing]) == 2

    @pytest.mark.parametrize("doc", [
        {"schema": obs.PROFILE_SCHEMA_VERSION, "span_tree": {}},
        {"schema": obs.PROFILE_SCHEMA_VERSION, "wall_s": 1.0, "coverage": 1.0,
         "counters": {}, "span_tree": _tree("figure/x", 1.0)},
    ], ids=["empty-span-tree", "no-figure"])
    def test_obs_report_refuses_malformed_profile(self, tmp_path, capsys, doc):
        from repro.cli import main

        path = tmp_path / "x.profile.json"
        path.write_text(json.dumps(doc))
        chrome = str(tmp_path / "trace.json")
        for argv in (["obs-report", str(path)],
                     ["obs-report", "--chrome-out", chrome, str(path)]):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1


# ----------------------------------------------------------------------
# Profile decoder fuzz
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig11_profile(tmp_path_factory):
    """One real ``figure fig11 --profile`` document."""
    from repro.cli import main

    tmp = tmp_path_factory.mktemp("fig11-profile")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["figure", "fig11", "--profile",
                     "--results-dir", str(tmp)]) == 0
    return json.loads((tmp / "fig11_exec_time_28bit.profile.json").read_text())


def _paths(node, prefix=()):
    """Every ``(container path, key)`` of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix, key
        yield from _paths(value, (*prefix, key))


_SWAPS = ["text", 1.5, -7, [], {}, None, True, {"name": 1}]


class TestProfileFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(
        st.tuples(st.integers(0, 1 << 30), st.integers(-1, len(_SWAPS) - 1)),
        min_size=1, max_size=3,
    ))
    def test_decoder_renders_or_refuses_in_one_line(
        self, fig11_profile, tmp_path, edits
    ):
        """Random key deletions (``-1``) and type swaps on a real
        profile: ``obs-report`` renders it or exits 2 with one line."""
        from repro.cli import main

        doc = json.loads(json.dumps(fig11_profile))
        for pick, swap in edits:
            paths = list(_paths(doc))
            prefix, key = paths[pick % len(paths)]
            parent = doc
            for step in prefix:
                parent = parent[step]
            if swap < 0:
                del parent[key]
            else:
                parent[key] = copy.deepcopy(_SWAPS[swap])
        path = tmp_path / "fuzz.profile.json"
        path.write_text(json.dumps(doc))
        chrome = str(tmp_path / "trace.json")
        for argv in (["obs-report", str(path)],
                     ["obs-report", "--chrome-out", chrome, str(path)],
                     ["obs-report", str(path), str(path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert code == 2
                assert err.getvalue().startswith("error:")
                assert err.getvalue().count("\n") == 1


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------
def _frames_to_kernel(transform, kernel_name):
    """The Python frames ``transform`` enters up to its stage kernel."""
    from repro.schemes.selection import largest_primes_below_word

    n, k = 64, 3
    moduli = tuple(largest_primes_below_word(n, 28, k))
    mat = np.random.default_rng(11).integers(
        0, min(moduli), size=(k, n), dtype=np.uint64
    )
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append((frame.f_globals.get("__name__"), frame.f_code.co_name))

    transform(mat, moduli)  # build the tables
    sys.setprofile(profiler)
    try:
        transform(mat, moduli)
    finally:
        sys.setprofile(None)
    kernel = ("repro.nt.ntt", kernel_name)
    # The moduli-tuple generator resumes once per modulus; one frame.
    return [c for c in calls[: calls.index(kernel) + 1] if c[1] != "<genexpr>"]


@pytest.mark.guard
class TestDisabledOverhead:
    def test_hot_path_frames_bounded_when_hooks_off(self, monkeypatch):
        """With the one switch off, ``forward_rows`` reaches the stage
        kernel through a fixed list of Python frames: each boundary
        costs a switch test, never a call.  (The wall-clock ratio this
        replaces lives in the benchmark ladder's
        ``obs.trace_overhead_ratio``; tier-1 only pins structure.)"""
        from repro.nt.ntt import forward_rows

        monkeypatch.setattr(core, "ACTIVE", False)
        assert _frames_to_kernel(forward_rows, "_forward_stages") == [
            ("repro.nt.ntt", "forward_rows"),
            ("repro.nt.ntt", "forward"),
            ("repro.nt.ntt", "_check"),
            ("repro.backends", "ntt_forward"),
            ("repro.nt.ntt", "_forward_stages"),
        ]

    def test_inverse_path_frames_bounded_when_hooks_off(self, monkeypatch):
        from repro.nt.ntt import inverse_rows

        monkeypatch.setattr(core, "ACTIVE", False)
        assert _frames_to_kernel(inverse_rows, "_inverse_stages") == [
            ("repro.nt.ntt", "inverse_rows"),
            ("repro.nt.ntt", "inverse"),
            ("repro.nt.ntt", "_check"),
            ("repro.backends", "ntt_inverse"),
            ("repro.nt.ntt", "_inverse_stages"),
        ]

    def test_disabled_hooks_allocate_nothing(self):
        # The structural half of the zero-cost claim: no span objects,
        # no counter entries, same singleton every call.
        spans = {id(obs.span(f"s{i}")) for i in range(100)}
        assert spans == {id(core.NULL_SPAN)}
        assert core.counters() == {}
