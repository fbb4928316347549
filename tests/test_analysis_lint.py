"""fhelint tests: every pass catches its seeded fixture and stays quiet
on clean code, pragmas suppress, and the repo itself lints clean."""

import ast
import json
import textwrap

import pytest

from repro.analysis import taint
from repro.analysis.absint import verify_trace, verify_traces
from repro.analysis.core import (
    SourceModule,
    lint_source,
    passes_for,
    run_lint,
)
from repro.cli import main
from repro.errors import ParameterError
from repro.trace.program import HeTrace, OpKind, TraceBuilder, TraceOp
from repro.workloads import workload_traces


def lint_str(source, rules, path="fixture.py"):
    module = SourceModule(path, textwrap.dedent(source))
    return lint_source(module, passes_for(rules))


class TestOverflowPass:
    def test_product_of_uint64_arrays_flagged(self):
        findings = lint_str(
            """
            import numpy as np

            def f(q):
                a = np.zeros(8, dtype=np.uint64)
                b = np.zeros(8, dtype=np.uint64)
                return a * b % q
            """,
            ["overflow-hazard"],
        )
        assert len(findings) == 1
        assert findings[0].rule == "overflow-hazard"

    def test_unreduced_sum_reduction_flagged(self):
        findings = lint_str(
            """
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray, q):
                return (a + b) % q
            """,
            ["overflow-hazard"],
        )
        assert len(findings) == 1
        assert "mod_add" in findings[0].message

    def test_scalar_uint64_partner_flagged(self):
        findings = lint_str(
            """
            import numpy as np

            def f(a: np.ndarray, k, q):
                return a * np.uint64(k) % np.uint64(q)
            """,
            ["overflow-hazard"],
        )
        assert len(findings) == 1

    def test_float_arrays_not_flagged(self):
        findings = lint_str(
            """
            import numpy as np

            def f():
                a = np.zeros(8, dtype=np.float64)
                return a * a
            """,
            ["overflow-hazard"],
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = lint_str(
            """
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray, q):
                return a * b % q  # fhelint: ok[overflow-hazard] both < 2^31
            """,
            ["overflow-hazard"],
        )
        assert findings == []

    def test_file_disable_pragma(self):
        findings = lint_str(
            """
            # fhelint: disable[overflow-hazard]
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray, q):
                return a * b % q
            """,
            ["overflow-hazard"],
        )
        assert findings == []


class TestDtypeRoutingPass:
    def test_object_ctor_flagged(self):
        findings = lint_str(
            """
            import numpy as np

            def f(n):
                return np.empty(n, dtype=object)
            """,
            ["dtype-routing"],
        )
        assert len(findings) == 1
        assert "modmath" in findings[0].message

    def test_object_ctor_allowed_in_modmath(self):
        findings = lint_str(
            """
            import numpy as np

            def zeros(n):
                return np.empty(n, dtype=object)
            """,
            ["dtype-routing"],
            path="src/repro/nt/modmath.py",
        )
        assert findings == []

    def test_handrolled_threshold_dispatch_flagged(self):
        findings = lint_str(
            """
            def pick(q):
                if q >= 1 << 61:
                    return object
                return None
            """,
            ["dtype-routing"],
        )
        assert len(findings) == 1
        assert "dtype_for_modulus" in findings[0].message

    def test_astype_truncation_flagged(self):
        findings = lint_str(
            """
            import numpy as np

            def f(n):
                big = np.empty(n, dtype=object)  # fhelint: ok[dtype-routing]
                return big.astype(np.uint64)
            """,
            ["dtype-routing"],
        )
        assert len(findings) == 1
        assert "truncat" in findings[0].message

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/nt/modmath.py",
            "src/repro/nt/ntt.py",
            "src/repro/backends/numpy_backend.py",
        ],
    )
    def test_float_dtype_flagged_in_residue_kernels(self, path):
        findings = lint_str(
            """
            import numpy as np

            def mulmod(a, b, q):
                quot = np.floor(a.astype(np.longdouble) * b / float(q))
                return a * b - quot.astype(np.uint64) * q
            """,
            ["dtype-routing"],
            path=path,
        )
        assert [f.line for f in findings] == [5, 5]
        assert all("integer-only" in f.message for f in findings)

    def test_float_dtype_allowed_outside_residue_kernels(self):
        # base_convert's alpha estimate: a float64 *count*, not a residue.
        findings = lint_str(
            """
            import numpy as np

            def alpha(v, q_inv):
                return np.rint(q_inv @ v.astype(np.float64))
            """,
            ["dtype-routing"],
            path="src/repro/rns/convert.py",
        )
        assert findings == []

    def test_mixed_stack_flagged(self):
        findings = lint_str(
            """
            import numpy as np

            def f(n):
                small = np.zeros(n, dtype=np.uint64)
                big = np.empty(n, dtype=object)  # fhelint: ok[dtype-routing]
                return np.stack([small, big])
            """,
            ["dtype-routing"],
        )
        assert len(findings) == 1

    def test_uniform_stack_clean(self):
        findings = lint_str(
            """
            import numpy as np

            def f(n):
                a = np.zeros(n, dtype=np.uint64)
                b = np.zeros(n, dtype=np.uint64)
                return np.stack([a, b])
            """,
            ["dtype-routing"],
        )
        assert findings == []


class TestExceptionHygienePass:
    def test_assert_flagged(self):
        findings = lint_str(
            """
            def f(x):
                assert x > 0
                return x
            """,
            ["exception-hygiene"],
        )
        assert len(findings) == 1
        assert "assert" in findings[0].message

    def test_builtin_raise_flagged(self):
        findings = lint_str(
            """
            def f(x):
                raise ValueError("bad x")
            """,
            ["exception-hygiene"],
        )
        assert len(findings) == 1
        assert "ValueError" in findings[0].message

    def test_repro_errors_and_reraise_clean(self):
        findings = lint_str(
            """
            from repro.errors import ParameterError

            def f(x):
                try:
                    g(x)
                except OSError:
                    raise
                raise ParameterError("bad x")

            def h():
                raise NotImplementedError
            """,
            ["exception-hygiene"],
        )
        assert findings == []


class TestExceptionSwallowPass:
    def test_bare_except_flagged(self):
        findings = lint_str(
            """
            def f(x):
                try:
                    return g(x)
                except:
                    return None
            """,
            ["exception-swallow"],
        )
        assert len(findings) == 1
        assert "bare `except:`" in findings[0].message

    def test_broad_pass_swallow_flagged(self):
        findings = lint_str(
            """
            def f(x):
                try:
                    g(x)
                except Exception:
                    pass
                for y in x:
                    try:
                        g(y)
                    except (OSError, BaseException):
                        continue
            """,
            ["exception-swallow"],
        )
        assert len(findings) == 2
        assert "Exception" in findings[0].message
        assert "BaseException" in findings[1].message

    def test_handled_broad_catch_not_flagged(self):
        """Catching Exception is fine when the handler *does* something
        (log, re-raise, fall back) — only silent swallows are flagged."""
        findings = lint_str(
            """
            def f(x):
                try:
                    return g(x)
                except Exception as exc:
                    record(exc)
                    return None
            """,
            ["exception-swallow"],
        )
        assert findings == []

    def test_narrow_pass_swallow_not_flagged(self):
        findings = lint_str(
            """
            def f(path):
                try:
                    path.unlink()
                except OSError:
                    pass
            """,
            ["exception-swallow"],
        )
        assert findings == []

    def test_pragma_suppresses_with_reason(self):
        findings = lint_str(
            """
            def f():
                try:
                    tune()
                except Exception:
                    # fhelint: ok[exception-swallow] best-effort tuning
                    pass
            """,
            ["exception-swallow"],
        )
        assert findings == []


class TestTimingHygienePass:
    def test_wall_clock_interval_flagged(self):
        findings = lint_str(
            """
            import time

            def f():
                t0 = time.time()
                work()
                return time.time() - t0
            """,
            ["timing-hygiene"],
        )
        assert len(findings) == 2
        assert "time.monotonic()" in findings[0].message

    def test_from_time_import_time_flagged(self):
        findings = lint_str(
            """
            from time import time
            """,
            ["timing-hygiene"],
        )
        assert len(findings) == 1
        assert "from time import time" in findings[0].message

    def test_monotonic_and_perf_counter_allowed(self):
        findings = lint_str(
            """
            import time
            from time import monotonic

            def f():
                t0 = time.perf_counter()
                return time.monotonic() - t0
            """,
            ["timing-hygiene"],
        )
        assert findings == []

    def test_obs_package_exempt(self):
        findings = lint_str(
            """
            import time

            def stamp():
                return time.time()
            """,
            ["timing-hygiene"],
            path="src/repro/obs/export.py",
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = lint_str(
            """
            import time

            def stamp():
                return time.time()  # fhelint: ok[timing-hygiene] wall stamp
            """,
            ["timing-hygiene"],
        )
        assert findings == []


class TestDriver:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ParameterError, match="unknown lint rules"):
            passes_for(["no-such-rule"])

    def test_parse_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = run_lint([bad])
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"

    def test_repo_is_clean(self):
        assert run_lint(["src/repro"]) == []


class TestScheduleChecker:
    def _trace(self, ops, levels=3):
        return HeTrace(
            name="fixture",
            n=1024,
            base_bits=60.0,
            level_scale_bits=tuple(30.0 for _ in range(levels + 1)),
            ops=ops,
        )

    def test_below_level_zero_flagged(self):
        trace = self._trace([TraceOp(OpKind.HMUL, -1)])
        findings = verify_trace(trace).findings
        assert [f.rule for f in findings] == ["trace-level-range"]
        assert "bootstrap" in findings[0].message

    def test_terminal_rescale_flagged(self):
        trace = self._trace([TraceOp(OpKind.RESCALE, 0)])
        findings = verify_trace(trace).findings
        assert [f.rule for f in findings] == ["trace-terminal-rescale"]

    def test_adjust_up_flagged(self):
        trace = self._trace([TraceOp(OpKind.ADJUST, 1, dst_level=2)])
        findings = verify_trace(trace).findings
        assert [f.rule for f in findings] == ["trace-adjust-up"]

    def test_scale_mismatch_flagged(self):
        # An hadd whose operands still carry the doubled post-mul scale.
        trace = self._trace([TraceOp(OpKind.HADD, 2, scale_bits=60.0)])
        findings = verify_trace(trace).findings
        assert [f.rule for f in findings] == ["trace-scale-mismatch"]
        assert "rescale" in findings[0].message

    def test_canonical_scale_clean(self):
        trace = self._trace(
            [
                TraceOp(OpKind.HMUL, 2, scale_bits=30.0),
                TraceOp(OpKind.RESCALE, 2),
                TraceOp(OpKind.HADD, 1, scale_bits=30.0),
            ]
        )
        assert verify_trace(trace).findings == []

    def test_builder_records_scale_bits(self):
        b = TraceBuilder("t", n=1024, base_bits=60.0,
                         level_scale_bits=(30.0, 30.0))
        b.record(OpKind.HADD, 1, scale_bits=30.0)
        assert b.build().ops[0].scale_bits == 30.0

    def test_bundled_workload_traces_clean(self):
        traces = workload_traces()
        assert traces  # every app x bootstrap x scheme
        assert verify_traces(traces)[1] == []


class TestLintCli:
    def test_clean_repo_exits_zero(self, capsys):
        rc = main(["lint", "src/repro"])
        assert rc == 0
        assert "fhelint: clean" in capsys.readouterr().out

    def test_seeded_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    assert x\n")
        rc = main(["lint", str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "exception-hygiene" in out

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    assert x\n")
        rc = main(["lint", str(bad), "--rules", "overflow-hazard"])
        assert rc == 0

    def test_traces_flag(self, capsys):
        rc = main(["lint", "src/repro/analysis", "--traces"])
        assert rc == 0

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for rule in ("overflow-hazard", "dtype-routing", "exception-hygiene"):
            assert rule in out


class TestAsyncTaskLeakPass:
    """``async-task-leak``: discarded create_task/ensure_future handles
    can be garbage-collected mid-flight (the loop holds only a weak
    reference) and their exceptions vanish."""

    def test_bare_create_task_flagged(self):
        findings = lint_str(
            """
            import asyncio

            async def serve(coro):
                asyncio.create_task(coro())
            """,
            ["async-task-leak"],
        )
        assert len(findings) == 1
        assert "weak reference" in findings[0].message

    def test_bare_ensure_future_flagged(self):
        findings = lint_str(
            """
            import asyncio

            async def serve(coro, loop):
                asyncio.ensure_future(coro())
                loop.create_task(coro())
            """,
            ["async-task-leak"],
        )
        assert len(findings) == 2

    def test_stored_awaited_and_gathered_tasks_clean(self):
        findings = lint_str(
            """
            import asyncio

            async def serve(coro):
                kept = asyncio.create_task(coro())
                tasks = []
                tasks.append(asyncio.create_task(coro()))
                await asyncio.create_task(coro())
                await asyncio.gather(*tasks, kept)
            """,
            ["async-task-leak"],
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = lint_str(
            """
            import asyncio

            async def serve(coro):
                asyncio.create_task(coro())  # fhelint: ok[async-task-leak] heartbeat, done-callback attached
            """,
            ["async-task-leak"],
        )
        assert findings == []

    def test_serve_package_is_clean(self):
        assert run_lint(["src/repro/serve"], ["async-task-leak"]) == []


class TestPragmaContinuation:
    """Pragmas anywhere in a multi-line statement suppress findings on
    any of its lines (regression: only the flagged node's own lines
    used to be scanned)."""

    def test_pragma_on_later_line_covers_node_on_first(self):
        findings = lint_str(
            """
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray, q):
                return (a * b
                        % q)  # fhelint: ok[overflow-hazard] both < 2^31
            """,
            ["overflow-hazard"],
        )
        assert findings == []

    def test_pragma_on_first_line_covers_node_on_later(self):
        findings = lint_str(
            """
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray, q):
                return (  # fhelint: ok[overflow-hazard] both < 2^31
                    a * b % q
                )
            """,
            ["overflow-hazard"],
        )
        assert findings == []

    def test_unsuppressed_multiline_still_fires(self):
        findings = lint_str(
            """
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray, q):
                return (a * b
                        % q)
            """,
            ["overflow-hazard"],
        )
        assert len(findings) == 1

    def test_pragma_in_adjacent_statement_does_not_leak(self):
        findings = lint_str(
            """
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray, q):
                safe = q  # fhelint: ok[overflow-hazard]
                return a * b % safe
            """,
            ["overflow-hazard"],
        )
        assert len(findings) == 1


def taint_env(source):
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef)
    )
    return taint.FunctionTaint(func)


class TestTaintEdges:
    def test_augmented_assignment_keeps_target_taint(self):
        ft = taint_env(
            """
            def f():
                x = np.zeros(4, dtype=np.uint64)
                x += 1
            """
        )
        assert taint.ARR_U64 in ft.env["x"]

    def test_augmented_assignment_taints_from_value(self):
        ft = taint_env(
            """
            def f():
                y = 1
                y += np.uint64(3)
            """
        )
        assert taint.SCALAR_U64 in ft.env["y"]

    def test_walrus_target_is_bound(self):
        ft = taint_env(
            """
            def f():
                if (z := np.zeros(4, dtype=np.uint64)).any():
                    return z
            """
        )
        assert taint.ARR_U64 in ft.env["z"]

    def test_tuple_unpacking_binds_element_wise(self):
        ft = taint_env(
            """
            def f():
                a, b = np.zeros(3, dtype=np.uint64), [1]
            """
        )
        assert taint.ARR_U64 in ft.env["a"]
        assert taint.ARR_U64 not in ft.env.get("b", set())

    def test_tuple_unpacking_from_scalar_value_is_conservative(self):
        ft = taint_env(
            """
            def f():
                pair = np.zeros(2, dtype=np.uint64)
                c, d = pair
            """
        )
        assert taint.ARR_U64 in ft.env["c"]
        assert taint.ARR_U64 in ft.env["d"]

    def test_starred_target_unwraps(self):
        ft = taint_env(
            """
            def f():
                head, *rest = np.zeros(4, dtype=np.uint64)
            """
        )
        assert taint.ARR_U64 in ft.env["head"]
        assert taint.ARR_U64 in ft.env["rest"]


class TestReportFormats:
    def _bad_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    assert x\n")
        return bad

    def test_lint_json_format(self, tmp_path, capsys):
        rc = main(["lint", str(self._bad_file(tmp_path)), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["tool"] == "fhelint"
        assert payload["summary"]["total"] == 1
        assert payload["summary"]["by_rule"] == {"exception-hygiene": 1}
        finding = payload["findings"][0]
        assert finding["rule"] == "exception-hygiene"
        assert finding["line"] == 2

    def test_lint_sarif_output_file(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        rc = main(
            [
                "lint",
                str(self._bad_file(tmp_path)),
                "--format",
                "sarif",
                "--output",
                str(out),
            ]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "fhelint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        results = doc["runs"][0]["results"]
        assert results[0]["ruleId"] == "exception-hygiene"
        assert rule_ids[results[0]["ruleIndex"]] == "exception-hygiene"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        # Documented rules are listed even where no result references
        # them, so the artifact records what the gate checked for.
        assert "overflow-hazard" in rule_ids

    def test_unknown_format_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["lint", str(tmp_path), "--format", "yaml"])


class TestVerifyTraceCli:
    def _write_trace(self, tmp_path, ops, name="cli-fixture"):
        trace = HeTrace(
            name=name,
            n=1024,
            base_bits=60.0,
            level_scale_bits=(30.0, 30.0, 30.0, 30.0),
            ops=ops,
        )
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace.to_dict()))
        return path

    def test_clean_file_trace_exits_zero(self, tmp_path, capsys):
        path = self._write_trace(
            tmp_path,
            [TraceOp(OpKind.HMUL, 2), TraceOp(OpKind.RESCALE, 2)],
        )
        rc = main(["verify-trace", str(path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "fhelint: clean" in captured.out
        assert "0 violation(s)" in captured.err

    def test_violating_file_trace_exits_one(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, [TraceOp(OpKind.RESCALE, 2)])
        rc = main(["verify-trace", str(path), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"trace-rescale-below-min": 1}
        assert payload["findings"][0]["path"] == "trace:cli-fixture"

    def test_suppress_flag_ignores_rule(self, tmp_path):
        path = self._write_trace(tmp_path, [TraceOp(OpKind.RESCALE, 2)])
        rc = main(
            ["verify-trace", str(path), "--suppress", "trace-rescale-below-min"]
        )
        assert rc == 0

    def test_waste_flag_reports_diagnostics(self, tmp_path, capsys):
        path = self._write_trace(
            tmp_path, [TraceOp(OpKind.ADJUST, 2, dst_level=1)]
        )
        assert main(["verify-trace", str(path)]) == 0
        capsys.readouterr()  # drain the text run before parsing JSON
        rc = main(["verify-trace", str(path), "--waste", "--format", "json"])
        assert rc == 0  # waste is advisory, not a violation
        payload = json.loads(capsys.readouterr().out)
        assert "trace-elidable-adjust" in payload["summary"]["by_rule"]

    def test_bundled_bitpacker_traces_certify(self, capsys):
        rc = main(["verify-trace", "--schemes", "bitpacker"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[verify-trace] ok" in err

    def test_sarif_artifact(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, [TraceOp(OpKind.HMUL, -1)])
        out = tmp_path / "verify.sarif"
        rc = main(
            [
                "verify-trace",
                str(path),
                "--format",
                "sarif",
                "--output",
                str(out),
            ]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        results = doc["runs"][0]["results"]
        assert results[0]["ruleId"] == "trace-level-range"
        # Op index 0 would be line 0; SARIF requires startLine >= 1.
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["verify-trace", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_list_rules(self, capsys):
        rc = main(["verify-trace", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for rule in (
            "trace-scale-overflow",
            "trace-noise-exhausted",
            "trace-elidable-rescale",
        ):
            assert rule in out
