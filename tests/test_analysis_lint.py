"""fhelint tests: every pass catches its seeded fixture and stays quiet
on clean code, pragmas suppress, and the repo itself lints clean."""

import ast
import json
import re
import textwrap

import pytest

from repro.analysis import taint
from repro.analysis.absint import verify_trace
from repro.analysis.core import (
    SourceModule,
    lint_source,
    passes_for,
    run_lint,
)
from repro.cli import main
from repro.errors import ParameterError
from repro.nt import modmath
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

    def test_messages_name_only_helpers_that_exist(self):
        """Every ``modmath`` helper a finding tells users to call is one."""
        findings = lint_str(
            """
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray, k, q):
                x = a * np.uint64(k) % q
                y = (a + b) % q
                z = (a - b) % q
                return x, y, z, (-a) % q, np.float64
            """,
            ["overflow-hazard", "dtype-routing"],
            path="src/repro/nt/modmath.py",
        )
        assert {f.rule for f in findings} == {"overflow-hazard", "dtype-routing"}
        for finding in findings:
            helpers = re.findall(r"\b(?:mod_\w+|mulhi64)\b", finding.message)
            assert helpers, finding.message
            assert all(hasattr(modmath, name) for name in helpers), helpers

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

    def test_extended_precision_flagged_everywhere(self):
        # float64 is fine outside the residue kernels; longdouble is not.
        findings = lint_str(
            """
            import numpy as np

            def decode(c):
                x = c.astype(np.float64)
                return np.fft.ifft(x.astype(np.clongdouble))
            """,
            ["dtype-routing"],
            path="src/repro/ckks/encoder.py",
        )
        assert [f.line for f in findings] == [6]
        assert "extended-precision" in findings[0].message

    def test_uniform_stack_clean(self):
        # Integer-only residue storage in a residue kernel: nothing to flag.
        findings = lint_str(
            """
            import numpy as np

            def f(n):
                a = np.zeros(n, dtype=np.uint64)
                b = np.zeros(n, dtype=np.uint64)
                return np.stack([a, b])
            """,
            ["dtype-routing"],
            path="src/repro/nt/ntt.py",
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
        assert [f for t in traces for f in verify_trace(t).findings] == []


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
        """``lint --traces`` is gone: ``verify-trace`` certifies schedules."""
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "src/repro/analysis", "--traces"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith("unrecognized arguments: --traces")

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "overflow-hazard", "dtype-routing", "exception-hygiene",
            "async-task-leak",
        ]

    def test_dropped_rule_exits_two_in_one_line(self, capsys):
        assert main(["lint", "src/repro", "--rules", "timing-hygiene"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown lint rules ['timing-hygiene']")
        assert err.count("\n") == 1


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
                asyncio.create_task(coro())  # fhelint: ok[async-task-leak] callback set
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

    def test_lint_json_output_file(self, tmp_path, capsys):
        out = tmp_path / "lint.json"
        rc = main(
            [
                "lint",
                str(self._bad_file(tmp_path)),
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        [finding] = doc["findings"]
        assert finding["rule"] == "exception-hygiene"
        assert finding["line"] == 2
        # Each finding carries its rule's one-line doc.
        assert finding["description"]

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

    def test_bundled_bitpacker_traces_certify(self, capsys):
        rc = main(["verify-trace", "--schemes", "bitpacker"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[verify-trace] ok" in err

    def test_json_artifact(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, [TraceOp(OpKind.HMUL, -1)])
        out = tmp_path / "verify.json"
        rc = main(
            [
                "verify-trace",
                str(path),
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        [finding] = doc["findings"]
        assert finding["rule"] == "trace-level-range"
        # The op index is the line number, 0 included.
        assert finding["line"] == 0
        assert finding["description"]

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["verify-trace", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_list_rules(self, capsys):
        rc = main(["verify-trace", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "trace-level-range", "trace-terminal-rescale", "trace-adjust-up",
            "trace-scale-mismatch", "trace-level-flow", "trace-scale-overflow",
            "trace-rescale-below-min", "trace-noise-exhausted",
            "trace-infeasible-chain",
        ]
