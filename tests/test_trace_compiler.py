"""Trace compiler: certified optimization of recorded schedules.

Covers the full pipeline over every bundled workload (each compiled
trace must re-certify clean and at least three must save whole levels),
the small-n executor cross-check (compiled traces still land inside the
verifier's abstract intervals), mutation-seeded refusals (the compiler
raises on broken inputs, never silently drops), canonical content
digests, trace schema versioning, serve-side compiled registration, and
the ``compile-trace`` CLI.
"""

import hashlib
import json
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.analysis.absint import check_observations, verify_or_raise, verify_trace
from repro.analysis.mutations import MUTATIONS
from repro.ckks import CkksContext
from repro.cli import main
from repro.errors import ParameterError, ScheduleViolationError
from repro.trace import execute_trace
from repro.trace.compiler import (
    MIN_NOISE_MARGIN_BITS,
    CompiledTrace,
    compile_trace,
    compile_workloads,
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


@pytest.fixture(scope="module")
def compiled_workloads() -> list[CompiledTrace]:
    """All 20 bundled traces through the compiler, once per module."""
    return compile_workloads(plan=False)


class TestBundledWorkloadCompilation:
    def test_compiles_all_bundled_workloads(self, compiled_workloads):
        # 5 benchmarks x 2 bootstrap cadences x 2 schemes.
        assert len(compiled_workloads) == 20

    def test_every_compiled_trace_recertifies_clean(self, compiled_workloads):
        for c in compiled_workloads:
            result = verify_or_raise(c.trace, word_bits=c.word_bits)
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

    def test_compiled_margins_stay_in_seed_envelope(self, compiled_workloads):
        # The precision envelope: tightening never pushes a schedule
        # below the floor the hand schedules already meet.
        for c in compiled_workloads:
            assert c.noise_margin_after >= MIN_NOISE_MARGIN_BITS, c.trace.name

    def test_provenance_digests_track_rewrites(self, compiled_workloads):
        for c in compiled_workloads:
            assert c.source_digest != c.digest or not c.changed
            if c.levels_saved > 0 or c.log2_q_saved > 0:
                assert c.changed
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

    def test_elides_flagged_rescale(self):
        # The toy waste shape: a never-multiplied rescale burning a
        # level inside a descending-scale region.
        trace = HeTrace(
            name="wasteful", n=1024, base_bits=60.0,
            level_scale_bits=(45.0, 30.0),
            ops=[
                TraceOp(OpKind.HADD, 1),
                TraceOp(OpKind.RESCALE, 1),
            ],
        )
        assert any(
            f.rule == "trace-elidable-rescale"
            for f in verify_trace(trace).waste
        )
        c = compile_trace(trace, plan=False)
        elide = next(p for p in c.passes if p.name == "elide-rescale")
        assert elide.rewrites > 0
        assert all(
            op.kind is not OpKind.RESCALE for op in c.trace.ops
        )
        assert not verify_trace(c.trace).waste

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
        observed = execute_trace(ctx, c.trace)
        assert check_observations(result, observed) == []


class TestSpanEdgeSuppression:
    """Satellite bugfix: waste diagnostics must not fire across
    bootstrap-span boundaries where the rescale/adjust is load-bearing
    (these exact traces were flagged before the fix)."""

    def span_trace(self) -> HeTrace:
        # Levels 0-1: app region (45); 2: StC (30); 3: EvalMod (55);
        # 4: CtS (52).  The rescale at level 2 exits the span carrying
        # no product — previously flagged trace-elidable-rescale.
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
        assert result.waste == []

    def test_in_span_adjust_not_flagged(self):
        # An adjust inside the span whose source level saw no compute:
        # the ladder conversion is load-bearing, not elidable.
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
        assert result.waste == []

    def test_waste_rule_still_fires_outside_a_span(self):
        # Suppression is scoped to bootstrap spans: the classic waste
        # shape in a plain descending-scale trace is still flagged
        # (mirrors the toy cases in test_analysis_absint).
        toy = HeTrace(
            name="still-wasteful", n=4096, base_bits=60.0,
            level_scale_bits=(45.0, 30.0),
            ops=[TraceOp(OpKind.HADD, 1), TraceOp(OpKind.RESCALE, 1)],
        )
        rules = [f.rule for f in verify_trace(toy).waste]
        assert rules == ["trace-elidable-rescale"]

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
        assert c.changed
        assert content_digest(c.trace) != content_digest(trace)

    def test_method_matches_function(self):
        trace = exec_fixture_trace()
        assert trace.content_digest() == content_digest(trace)

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


class TestServeCompiledRegistration:
    @pytest.fixture(autouse=True)
    def _fresh_gate(self):
        from repro.analysis.absint import GATE

        GATE.clear()
        yield
        GATE.clear()

    def test_register_compiled_shrinks_session_and_records_provenance(self):
        from repro.serve.service import BitPackerServe

        service = BitPackerServe()
        compiled = service.register("c", app="LogReg", bs="BS19", compiled=True)
        plain = service.register("p", app="LogReg", bs="BS19")
        assert compiled.levels_saved > 0
        assert compiled.trace.max_level < plain.trace.max_level
        assert compiled.compiled_from == content_digest(plain.trace)
        assert content_digest(compiled.trace) != compiled.compiled_from
        assert plain.compiled_from is None

    def test_recompilation_invalidates_source_gate_verdict(self):
        from repro.analysis.absint import GATE
        from repro.serve.service import BitPackerServe, invalidate_admitted

        service = BitPackerServe()
        plain = service.register("p", app="LogReg", bs="BS19")
        source = content_digest(plain.trace)
        assert source in GATE.digests()
        service.register("c", app="LogReg", bs="BS19", compiled=True)
        # register(compiled=True) dropped the stale source verdict
        # before admitting the rewritten trace.
        assert invalidate_admitted(source) is False

    def test_invalidate_admitted_reports_presence(self):
        from repro.serve.service import BitPackerServe, invalidate_admitted

        service = BitPackerServe()
        session = service.register("t", app="LogReg", bs="BS19")
        digest = content_digest(session.trace)
        assert invalidate_admitted(digest) is True
        assert invalidate_admitted(digest) is False


class TestCompileTraceCli:
    def test_text_report_for_bundled_workloads(self, capsys):
        rc = main(["compile-trace", "--schemes", "bitpacker", "--no-plan"])
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
            "--no-plan", "--format", "json", "--output", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["totals"]["workloads"] == 1
        assert doc["totals"]["levels_saved"] > 0
        entry = doc["workloads"][0]
        assert entry["scheme"] == "bitpacker"
        assert entry["source_digest"] != entry["digest"]

    def test_require_savings_succeeds_on_bundled(self, capsys):
        rc = main([
            "compile-trace", "--schemes", "bitpacker", "--no-plan",
            "--require-savings", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["levels_saved"] > 0

    def test_require_savings_fails_when_nothing_saved(self, tmp_path, capsys):
        # An already-compiled trace has nothing left to shed.
        c = compile_trace(exec_fixture_trace(), plan=False)
        path = tmp_path / "compiled.json"
        path.write_text(json.dumps(c.trace.to_dict()))
        rc = main([
            "compile-trace", str(path), "--schemes", "bitpacker",
            "--no-plan", "--require-savings",
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
        rc = main(["compile-trace", str(path), "--no-plan"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        rc = main(["compile-trace", str(tmp_path / "missing.json")])
        assert rc == 2


class TestEvalPlumbing:
    def test_trace_for_compiled_is_a_distinct_smaller_schedule(self):
        from repro.eval.common import trace_for

        plain = trace_for("LogReg", "BS19", "bitpacker", 28)
        compiled = trace_for("LogReg", "BS19", "bitpacker", 28, compiled=True)
        assert compiled.max_level < plain.max_level
        assert content_digest(compiled) != content_digest(plain)

    def test_chain_for_compiled_is_narrower(self):
        from repro.eval.common import chain_for

        plain = chain_for("LogReg", "BS19", "bitpacker", 28)
        compiled = chain_for("LogReg", "BS19", "bitpacker", 28, compiled=True)
        assert len(compiled.levels) < len(plain.levels)
