"""Trace compiler: certified optimization of recorded schedules.

Covers the full pipeline over every bundled workload (each compiled
trace must re-certify clean, keep its source's ops one for one, and at
least three must save whole levels),
the small-n executor cross-check (compiled traces still land inside the
verifier's abstract intervals), mutation-seeded refusals (the compiler
raises on broken inputs, never silently drops), canonical content
digests, trace schema versioning, a fuzz of the trace-JSON decoders,
and the ``compile-trace`` CLI.
"""

import contextlib
import copy
import hashlib
import io
import json
import time
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.absint import check_observations, verify_or_raise, verify_trace
from repro.ckks import CkksContext
from repro.cli import main
from repro.errors import ParameterError, ScheduleViolationError
from repro.trace import TraceExecutor, compiler
from repro.trace.compiler import (
    MIN_NOISE_MARGIN_BITS,
    compile_trace,
    render_report,
)
from repro.trace.program import (
    TRACE_SCHEMA_VERSION,
    HeTrace,
    OpKind,
    TraceOp,
    content_digest,
)
from repro.workloads import workload_traces
from tests.conftest import op_counts
from tests.oracles.mutations import MUTATIONS


def exec_fixture_trace() -> HeTrace:
    """Small compilable schedule: an unused top level plus scale/base
    slack, so truncate-levels and both tighten passes all fire."""
    return HeTrace(
        name="exec-fixture", n=256, base_bits=45.0,
        level_scale_bits=(30.0,) * 5,
        ops=[
            TraceOp(OpKind.HMUL, 3),
            TraceOp(OpKind.RESCALE, 3),
            TraceOp(OpKind.HMUL, 2),
            TraceOp(OpKind.RESCALE, 2),
            TraceOp(OpKind.HADD, 1),
        ],
    )


class TestBundledWorkloadCompilation:
    def test_compiles_all_bundled_workloads(self, compiled_workloads):
        # 5 benchmarks x 2 bootstrap cadences x 2 schemes.
        assert len(compiled_workloads) == 20

    def test_every_compiled_trace_recertifies_clean(self, compiled_workloads):
        for c in compiled_workloads:
            result = verify_or_raise(c.trace)
            assert result.ok, c.trace.name
            assert not result.findings

    def test_savings_are_monotone_and_real(self, compiled_workloads):
        # No compilation may cost levels or modulus; at least three
        # bundled workloads must shed whole levels (ISSUE acceptance).
        assert all(c.levels_saved >= 0 for c in compiled_workloads)
        assert all(c.log2_q_saved >= 0 for c in compiled_workloads)
        with_level_savings = [c for c in compiled_workloads if c.levels_saved > 0]
        assert len(with_level_savings) >= 3
        assert sum(c.log2_q_saved for c in compiled_workloads) > 0

    def test_ops_kept_one_for_one_and_sweep_totals(self, compiled_workloads):
        # The passes rewrite chain constraints and relabel levels; none
        # adds or drops an op.  Sources in compile_workloads' order.
        sources = [
            trace
            for scheme in ("bitpacker", "rns-ckks")
            for trace in workload_traces(schemes=(scheme,), word_bits=28)
        ]
        assert len(sources) == len(compiled_workloads) == 20
        for source, c in zip(sources, compiled_workloads):
            assert c.word_bits == 28 and c.source_digest == content_digest(source)
            assert len(c.trace.ops) == len(source.ops), source.name
            assert op_counts(c.trace) == op_counts(source), source.name
        assert sum(c.levels_saved for c in compiled_workloads) == 16
        assert sum(c.log2_q_saved for c in compiled_workloads) == 1168.0

    def test_compiled_margins_stay_in_seed_envelope(self, compiled_workloads):
        # The precision envelope: tightening never pushes a schedule
        # below the floor the hand schedules already meet.
        for c in compiled_workloads:
            assert c.noise_margin_after >= MIN_NOISE_MARGIN_BITS, c.trace.name

    def test_provenance_digests_track_rewrites(self, compiled_workloads):
        for c in compiled_workloads:
            if c.levels_saved > 0 or c.log2_q_saved > 0:
                assert c.digest != c.source_digest
            assert c.digest == content_digest(c.trace)

    def test_render_report_totals_line(self, compiled_workloads):
        report = render_report(compiled_workloads)
        assert "total:" in report
        assert f"across {len(compiled_workloads)} workload(s)" in report


class TestCompileTraceUnit:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ParameterError):
            compile_trace(exec_fixture_trace(), scheme="tfhe")

    def test_truncates_unused_levels_without_touching_base_semantics(self):
        c = compile_trace(exec_fixture_trace(), plan=False)
        assert c.levels_saved == 2  # unused top level + unused bottom level
        assert c.log2_q_saved > 0
        assert [p.name for p in c.passes if p.rewrites] == [
            "truncate-levels", "tighten-scales", "tighten-base",
        ]

    def test_planned_chain_matches_compiled_profile(self):
        c = compile_trace(exec_fixture_trace(), ks_digits=2)
        assert c.chain is not None
        assert len(c.chain.levels) == c.levels_after

    def test_refuses_every_mutated_workload(self):
        # Refusal, not repair: a schedule with injected violations must
        # raise out of the compiler, never come back "optimized".
        trace = workload_traces(schemes=("bitpacker",))[0]
        for mutation in MUTATIONS:
            with pytest.raises(ScheduleViolationError):
                compile_trace(mutation.apply(trace), plan=False)

    def test_compilation_is_idempotent(self):
        once = compile_trace(exec_fixture_trace(), plan=False)
        twice = compile_trace(once.trace, plan=False)
        assert twice.levels_saved == 0
        assert twice.digest == once.digest


class TestExecutorCrossCheck:
    def test_compiled_trace_replays_inside_abstract_bounds(self):
        # The acceptance check from test_trace_execute, now post-
        # compilation: run the *compiled* schedule on a chain planned
        # from its own profile and require every observed (level,
        # scale) inside the verifier's intervals.
        c = compile_trace(exec_fixture_trace(), ks_digits=2)
        assert c.levels_saved > 0  # the replay exercises a real rewrite
        ctx = CkksContext(c.chain, seed=101)
        result = verify_or_raise(c.trace)
        observed = TraceExecutor(ctx).run(c.trace)
        assert check_observations(result, observed) == []


class TestSpanEdgeSuppression:
    """Bootstrap-span edges: the ladder's rescales and adjusts between
    stage scales are load-bearing, so these traces (once flagged as
    elidable waste) verify clean and compile with every rescale kept."""

    def span_trace(self) -> HeTrace:
        # Levels 0-1: app region (45); 2: StC (30); 3: EvalMod (55);
        # 4: CtS (52).  The rescale at level 2 exits the span carrying
        # no product.
        return HeTrace(
            name="span-edge", n=4096, base_bits=60.0,
            level_scale_bits=(45.0, 45.0, 30.0, 55.0, 52.0),
            ops=[
                TraceOp(OpKind.HMUL, 1),
                TraceOp(OpKind.RESCALE, 1),
                TraceOp(OpKind.PMUL, 4),   # bootstrap entry
                TraceOp(OpKind.RESCALE, 4),
                TraceOp(OpKind.HMUL, 3),
                TraceOp(OpKind.RESCALE, 3),
                TraceOp(OpKind.HROT, 2),
                TraceOp(OpKind.HADD, 2),
                TraceOp(OpKind.RESCALE, 2),  # span exit: load-bearing
                TraceOp(OpKind.HMUL, 1),
                TraceOp(OpKind.RESCALE, 1),
            ],
        )

    def test_span_exit_rescale_not_flagged(self):
        result = verify_trace(self.span_trace())
        assert not result.findings
        assert result.bootstraps == 1

    def test_in_span_adjust_not_flagged(self):
        # An adjust inside the span whose source level saw no compute:
        # the ladder conversion is load-bearing.
        trace = HeTrace(
            name="span-adjust", n=4096, base_bits=60.0,
            level_scale_bits=(45.0, 45.0, 30.0, 55.0, 55.0),
            ops=[
                TraceOp(OpKind.HMUL, 1),
                TraceOp(OpKind.RESCALE, 1),
                TraceOp(OpKind.PMUL, 4),
                TraceOp(OpKind.RESCALE, 4),
                TraceOp(OpKind.ADJUST, 3, dst_level=2),
                TraceOp(OpKind.HROT, 2),
                TraceOp(OpKind.RESCALE, 2),
                TraceOp(OpKind.HMUL, 1),
                TraceOp(OpKind.RESCALE, 1),
            ],
        )
        result = verify_trace(trace)
        assert not result.findings

    def test_compiler_keeps_span_rescales(self):
        # End to end: the compiler must not strip the bootstrap
        # ladder's conversions out of a clean span trace.
        trace = self.span_trace()
        c = compile_trace(trace, plan=False)
        before = sum(op.count for op in trace.ops if op.kind is OpKind.RESCALE)
        after = sum(op.count for op in c.trace.ops if op.kind is OpKind.RESCALE)
        assert after == before


class TestContentDigest:
    def test_stable_under_dict_reordering(self):
        trace = exec_fixture_trace()
        d = trace.to_dict()
        reordered = dict(reversed(list(d.items())))
        assert content_digest(HeTrace.from_dict(reordered)) == content_digest(trace)

    def test_ignores_schema_field(self):
        trace = exec_fixture_trace()
        d = trace.to_dict()
        d.pop("schema")
        assert content_digest(HeTrace.from_dict(d)) == content_digest(trace)

    def test_changes_on_compiler_rewrite(self):
        trace = exec_fixture_trace()
        c = compile_trace(trace, plan=False)
        assert c.digest != c.source_digest
        assert content_digest(c.trace) != content_digest(trace)

    def test_cached_digest_never_follows_a_rewrite(self):
        """The digest is memoised on the (frozen) trace.  Every way of
        deriving a trace must construct a new one whose digest is that
        of its own content, computed from scratch."""

        def from_scratch(trace):
            payload = trace.to_dict()
            payload.pop("schema")
            encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(encoded.encode()).hexdigest()

        trace = exec_fixture_trace()
        source = content_digest(trace)  # primes the memo on ``trace``
        assert source == from_scratch(trace)
        assert "_digest" not in trace.to_dict()
        extra = TraceOp(OpKind.HADD, 0)
        derived = [
            trace.extended([extra]),
            replace(trace, ops=trace.ops + (extra,)),
            replace(trace, base_bits=trace.base_bits + 1.0),
            compile_trace(trace, plan=False).trace,
        ]
        for new in derived:
            assert content_digest(new) == from_scratch(new) != source
        round_trip = HeTrace.from_dict(trace.to_dict())
        assert round_trip == trace and round_trip is not trace
        assert content_digest(round_trip) == from_scratch(round_trip) == source
        # No in-place route to a stale digest is left open.
        assert isinstance(trace.ops, tuple)
        with pytest.raises(FrozenInstanceError):
            trace.ops = trace.ops + (extra,)
        assert content_digest(trace) == source

    def test_rewritten_schedule_misses_the_gate(self):
        from repro.analysis.absint import VerifyGate

        gate, seen = VerifyGate(), []
        trace = exec_fixture_trace()
        gate.admit(trace, seen.append)
        gate.admit(trace, seen.append)
        gate.admit(HeTrace.from_dict(trace.to_dict()), seen.append)
        assert len(seen) == 1
        rewritten = compile_trace(trace, plan=False).trace
        gate.admit(rewritten, seen.append)
        gate.admit(trace.extended([TraceOp(OpKind.HADD, 0)]), seen.append)
        assert len(seen) == 3 and seen[1] is rewritten


class TestTraceSchemaVersion:
    def test_round_trip_carries_schema(self):
        d = exec_fixture_trace().to_dict()
        assert d["schema"] == TRACE_SCHEMA_VERSION

    def test_missing_schema_decodes_as_v1(self):
        d = exec_fixture_trace().to_dict()
        d.pop("schema")
        assert HeTrace.from_dict(d) == exec_fixture_trace()

    def test_newer_schema_raises_parameter_error(self):
        d = exec_fixture_trace().to_dict()
        d["schema"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ParameterError, match="newer than this reader"):
            HeTrace.from_dict(d)

    def test_malformed_encoding_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="malformed trace encoding"):
            HeTrace.from_dict({"name": "x"})
        with pytest.raises(ParameterError):
            HeTrace.from_dict([1, 2, 3])

    def test_verify_trace_cli_exits_2_on_newer_schema(self, tmp_path, capsys):
        # Satellite bugfix regression: a newer-schema file used to blow
        # up with a KeyError traceback; now it's a clean exit 2.
        d = exec_fixture_trace().to_dict()
        d["schema"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(d))
        rc = main(["verify-trace", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "schema version 99" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def bundled_trace() -> dict:
    """The smallest bundled schedule, JSON-ready."""
    traces = workload_traces(schemes=("bitpacker",))
    return min(traces, key=lambda t: len(t.ops)).to_dict()


def _run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


#: Every field the decoders read, as (container path, key).
_FIELDS = [
    ((), key)
    for key in ("schema", "name", "n", "base_bits", "level_scale_bits", "ops")
] + [(("level_scale_bits",), 0), (("ops",), 0)] + [
    (("ops", 0), key)
    for key in ("kind", "level", "count", "dst_level", "scale_bits")
]
_SWAPS = ["text", 1.5, -7, [], {}, None, True, {"name": 1}]


class TestTraceDecoderFuzz:
    """A trace file the decoders refuse is one ``error:`` line and exit
    2, never a traceback."""

    @pytest.mark.parametrize("path, key, value", [
        (("ops", 0), "level", "x"),
        ((), "n", "64"),
        ((), "level_scale_bits", []),
        (("ops", 0), "count", True),
    ], ids=["op-level-str", "n-str", "no-levels", "count-bool"])
    def test_wrong_type_is_one_line_exit_2(
        self, bundled_trace, tmp_path, path, key, value
    ):
        doc = json.loads(json.dumps(bundled_trace))
        parent = doc
        for step in path:
            parent = parent[step]
        parent[key] = value
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(doc))
        for command in ("verify-trace", "compile-trace"):
            code, err = _run_cli([command, str(trace)])
            assert code == 2
            assert err.startswith("error: malformed trace encoding")
            assert err.count("\n") == 1

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(
        st.tuples(st.sampled_from(_FIELDS), st.integers(-1, len(_SWAPS) - 1)),
        min_size=1, max_size=3,
    ))
    def test_cli_certifies_or_refuses_in_one_line(
        self, bundled_trace, tmp_path, edits
    ):
        """Random key deletions (``-1``) and type swaps on a bundled
        trace: ``verify-trace`` and ``compile-trace`` either run (exit 0,
        or 1 for a violating schedule) or exit 2 with one stderr line."""
        doc = json.loads(json.dumps(bundled_trace))
        for (path, key), swap in edits:
            parent = doc
            try:
                for step in path:
                    parent = parent[step]
                if swap < 0:
                    del parent[key]
                else:
                    parent[key] = copy.deepcopy(_SWAPS[swap])
            except (KeyError, IndexError, TypeError):
                continue  # an earlier edit removed or replaced the field
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(doc))
        for argv in (["verify-trace", str(trace)],
                     ["compile-trace", str(trace), "--schemes", "bitpacker"]):
            code, err = _run_cli(argv)
            if code == 2:
                assert err.startswith("error:") and err.count("\n") == 1
            else:
                assert code in (0, 1) and "Traceback" not in err


class TestTightenBaseSearch:
    """``tighten-base`` looks for the largest whole-bit base reduction
    that verifies in a bounded number of verifications, whatever the
    size of ``base_bits``."""

    def test_a_2_60_base_compiles_in_seconds(self, bundled_trace, tmp_path):
        doc = dict(bundled_trace, base_bits=float(1 << 60))
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, err = _run_cli(
            ["compile-trace", str(trace), "--schemes", "bitpacker"]
        )
        assert time.perf_counter() - t0 < 10.0
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1
        else:
            assert code == 0 and "Traceback" not in err

    @pytest.mark.parametrize("limit", [1, 137, 498, 499])
    def test_bisection_finds_the_largest_clean_reduction(self, monkeypatch, limit):
        """A verifier that accepts reductions up to ``limit`` bits: the
        pass lands on ``limit`` (the whole 499-bit slack when it can) in
        at most 64 verifications."""
        calls = []

        def fake_verify(candidate, **_):
            calls.append(candidate.base_bits)
            clean = 1000.0 - candidate.base_bits <= limit
            return SimpleNamespace(findings=[] if clean else ["encroaches"])

        monkeypatch.setattr(compiler, "verify_trace", fake_verify)
        trace = replace(exec_fixture_trace(), base_bits=1000.0)
        out, delta, _ = compiler._pass_tighten_base(
            trace, SimpleNamespace(slack_bits=(500.0, 800.0))
        )
        assert delta == limit and out.base_bits == 1000.0 - limit
        assert len(calls) <= 64


class TestCompileTraceCli:
    def test_text_report_for_bundled_workloads(self, tmp_path, capsys):
        # One trace file keeps this fast; the bundled path itself is
        # test_require_savings_succeeds_on_bundled's.
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(exec_fixture_trace().to_dict()))
        rc = main(["compile-trace", str(path), "--schemes", "bitpacker"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "total:" in captured.out
        assert "re-certified" in captured.err

    def test_json_report_for_a_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(exec_fixture_trace().to_dict()))
        out = tmp_path / "report.json"
        rc = main([
            "compile-trace", str(path), "--schemes", "bitpacker",
            "--format", "json", "--output", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["totals"]["workloads"] == 1
        assert doc["totals"]["levels_saved"] > 0
        entry = doc["workloads"][0]
        assert entry["scheme"] == "bitpacker"
        assert entry["source_digest"] != entry["digest"]

    def test_require_savings_succeeds_on_bundled(
        self, capsys, monkeypatch, compiled_workloads
    ):
        # The bundled sweep is the session fixture's; the command reports
        # and gates it rather than compiling it a second time.
        calls = []

        def sweep(schemes, word_bits, *, plan):
            calls.append((tuple(schemes), word_bits, plan))
            return [c for c in compiled_workloads if c.scheme in schemes]

        monkeypatch.setattr(compiler, "compile_workloads", sweep)
        rc = main([
            "compile-trace", "--schemes", "bitpacker",
            "--require-savings", "--format", "json",
        ])
        assert rc == 0
        assert calls == [(("bitpacker",), 28, True)]
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["workloads"] == 10
        assert doc["totals"]["levels_saved"] > 0

    def test_require_savings_fails_when_nothing_saved(self, tmp_path, capsys):
        # An already-compiled trace has nothing left to shed.
        c = compile_trace(exec_fixture_trace(), plan=False)
        path = tmp_path / "compiled.json"
        path.write_text(json.dumps(c.trace.to_dict()))
        rc = main([
            "compile-trace", str(path), "--schemes", "bitpacker",
            "--require-savings",
        ])
        assert rc == 1

    def test_violating_trace_exits_2(self, tmp_path, capsys):
        bad = HeTrace(
            name="broken", n=256, base_bits=60.0,
            level_scale_bits=(30.0, 30.0),
            ops=[TraceOp(OpKind.HMUL, 99)],
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad.to_dict()))
        rc = main(["compile-trace", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        rc = main(["compile-trace", str(tmp_path / "missing.json")])
        assert rc == 2

