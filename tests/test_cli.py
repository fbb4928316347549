"""CLI tests (invoked in-process)."""

from pathlib import Path

import pytest

from repro.cli import FIGURES, main

EXPECTED_FIGURES = {
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "table1", "sec61", "sec62", "sec63",
    "ablation_scale_down", "ablation_ks_digits", "ablation_tolerance_window",
}


@pytest.fixture()
def figure_args(tmp_path):
    """An isolated ``--results-dir``, so no test writes ``results/``."""
    return ["--results-dir", str(tmp_path / "results")]


@pytest.fixture()
def failing_publish(monkeypatch):
    """Make the next ``os.replace`` (the publishing rename) raise ``exc``."""

    def install(exc):
        def replace(src, dst):
            raise exc

        monkeypatch.setattr("repro.cli.os.replace", replace)

    return install


class TestPlanCommand:
    def test_plan_both_schemes(self, capsys):
        rc = main([
            "plan", "--n", "256", "--word", "28", "--scale", "30",
            "--levels", "3", "--base", "40", "--digits", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bitpacker chain" in out
        assert "rns-ckks chain" in out
        assert "utilization" in out

    def test_plan_single_scheme(self, capsys):
        rc = main([
            "plan", "--scheme", "bitpacker", "--n", "256", "--scale", "30",
            "--levels", "2", "--base", "40", "--digits", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bitpacker chain" in out
        assert "rns-ckks chain" not in out

    def test_plan_prints_a_64_bit_chain(self, capsys):
        """Planning never builds residues, so 64-bit words still plan."""
        assert main(["plan", "--word", "64"]) == 0
        out = capsys.readouterr().out
        assert "bitpacker chain: n=1024, word=64b" in out
        assert "rns-ckks chain: n=1024, word=64b" in out
        assert "64, 64" in out


@pytest.mark.parametrize("argv", [
    ["plan", "--n", "1000"],  # ParameterError: not a power of two
    ["plan", "--word", "10"],  # PlanningError: no word-sized primes
])
def test_bad_input_is_one_error_line(capsys, argv):
    """Bad parameters exit 2 with one ``error:`` line, not a traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["figure", "fig13", "--compiled"],
])
def test_compiled_is_not_an_option(capsys, argv):
    """Compiled schedules come from ``compile-trace`` alone."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --compiled" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--no-cache"], ["--force"], ["--cache-dir", "X"],
])
def test_cache_flags_are_gone(capsys, flags):
    """There is no disk cache to bypass, refresh or relocate."""
    with pytest.raises(SystemExit) as exit_info:
        main(["figure", "fig10", *flags])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in (
        capsys.readouterr().err
    )


class TestFigureCommand:
    def test_fig10(self, capsys, tmp_path, figure_args):
        rc = main(["figure", "fig10", *figure_args])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Fig. 10" in captured.out
        assert "[fig10] done" in captured.err
        result_file = tmp_path / "results" / "fig10_energy_breakdown.txt"
        assert result_file.read_text() == captured.out[:-1]

    def test_unknown_figure_rejected(self, capsys):
        """Unknown names exit 2 with a one-line error, not a traceback."""
        rc = main(["figure", "fig99", "fig10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: unknown figure(s): fig99" in err
        assert "Traceback" not in err

    def test_unknown_figure_lists_valid_names(self, capsys):
        rc = main(["figure", "nope"])
        assert rc == 2
        assert "fig14" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, capsys, figure_args):
        """There is one kernel engine and no flag that names another."""
        with pytest.raises(SystemExit) as exit_info:
            main(["figure", "fig10", "--backend", "numpy", *figure_args])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_failed_figure_stops_run_by_default(
        self, capsys, tmp_path, figure_args, monkeypatch
    ):
        monkeypatch.setitem(
            FIGURES, "figbad", ("repro.eval.does_not_exist", "figbad", "n/a")
        )
        rc = main(["figure", "figbad", "fig10", *figure_args])
        assert rc == 1
        captured = capsys.readouterr()
        assert "[figbad] FAILED" in captured.err
        # Fail-fast: the remaining figures were not attempted.
        assert not (tmp_path / "results" / "fig10_energy_breakdown.txt").exists()

    def test_keep_going_runs_rest_after_failure(
        self, capsys, tmp_path, figure_args, monkeypatch
    ):
        monkeypatch.setitem(
            FIGURES, "figbad", ("repro.eval.does_not_exist", "figbad", "n/a")
        )
        rc = main(["figure", "figbad", "fig10", "--keep-going", *figure_args])
        assert rc == 1
        captured = capsys.readouterr()
        assert "[figbad] FAILED" in captured.err
        # The failure did not stop the remaining figures.
        assert (tmp_path / "results" / "fig10_energy_breakdown.txt").exists()
        assert "Fig. 10" in captured.out

    def test_interrupted_figure_exits_130(
        self, capsys, tmp_path, figure_args, monkeypatch
    ):
        """Ctrl-C mid-harness: clean exit 130, finished figures kept."""
        import repro.eval.fig10 as fig10

        def interrupt():
            raise KeyboardInterrupt

        monkeypatch.setattr(fig10, "run", interrupt)
        rc = main(["figure", "sec61", "fig10", "sec63", *figure_args])
        assert rc == 130
        captured = capsys.readouterr()
        assert "[fig10] interrupted" in captured.err
        # The figure finished before the interrupt was flushed...
        assert (tmp_path / "results" / "sec61_security_params.txt").exists()
        # ...and nothing after the interrupt ran.
        assert not (tmp_path / "results" / "sec63_area_reduction.txt").exists()

    def test_keep_going_all_failures_exits_nonzero(
        self, capsys, figure_args, monkeypatch
    ):
        """--keep-going with every figure failing must still exit 1."""
        monkeypatch.setitem(
            FIGURES, "figbad1", ("repro.eval.no_such_a", "figbad1", "n/a")
        )
        monkeypatch.setitem(
            FIGURES, "figbad2", ("repro.eval.no_such_b", "figbad2", "n/a")
        )
        rc = main(["figure", "figbad1", "figbad2", "--keep-going",
                   *figure_args])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[figbad1] FAILED" in err
        assert "[figbad2] FAILED" in err
        assert "failed: figbad1, figbad2" in err

    def test_result_write_is_atomic_under_interrupt(
        self, capsys, tmp_path, figure_args, failing_publish, monkeypatch
    ):
        """Ctrl-C in the publish window leaves no torn or temp files."""
        results = tmp_path / "results"
        failing_publish(KeyboardInterrupt())
        rc = main(["figure", "fig10", *figure_args])
        assert rc == 130
        assert "[fig10] interrupted" in capsys.readouterr().err
        out = results / "fig10_energy_breakdown.txt"
        assert not out.exists()
        assert list(results.iterdir()) == []
        # A clean re-run publishes the full output.
        monkeypatch.undo()
        assert main(["figure", "fig10", *figure_args]) == 0
        assert "Fig. 10" in out.read_text()

    def test_result_write_crash_counts_as_failure(
        self, capsys, tmp_path, figure_args, failing_publish
    ):
        """A non-interrupt crash mid-publish fails the figure cleanly."""
        results = tmp_path / "results"
        failing_publish(OSError("disk full"))
        rc = main(["figure", "fig10", *figure_args])
        assert rc == 1
        assert "[fig10] FAILED" in capsys.readouterr().err
        assert list(results.iterdir()) == []

    def test_warm_rerun_served_from_cache(
        self, capsys, tmp_path, figure_args, monkeypatch
    ):
        """A second invocation in the same process prices nothing: every
        point comes back from the in-process memos, byte for byte."""
        from repro.eval import common

        common.clear_memory_caches()
        assert main(["figure", "fig11", *figure_args]) == 0
        out = tmp_path / "results" / "fig11_exec_time_28bit.txt"
        cold = out.read_text()
        simulations = []
        real = common._simulate
        monkeypatch.setattr(
            common, "_simulate",
            lambda *args: simulations.append(args) or real(*args),
        )
        assert main(["figure", "fig11", *figure_args]) == 0
        assert simulations == []
        assert out.read_text() == cold
        assert "[cache]" not in capsys.readouterr().err

    def test_registry_complete(self):
        assert set(FIGURES) == EXPECTED_FIGURES

    def test_registry_matches_committed_results(self):
        """``repro figure`` is the one producer of every committed table."""
        results = Path(__file__).resolve().parent.parent / "results"
        assert {stem for _, stem, _ in FIGURES.values()} == {
            path.stem for path in results.glob("*.txt")
        }


class TestListFigures:
    def test_lists_all(self, capsys):
        rc = main(["list-figures"])
        assert rc == 0
        out = capsys.readouterr().out
        assert {line.split()[0] for line in out.splitlines()} == EXPECTED_FIGURES


class TestLintCommand:
    def test_default_path_resolves_installed_package(
        self, capsys, tmp_path, monkeypatch
    ):
        """``lint`` with no paths must work from any working directory."""
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", "--rules", "exception-hygiene"])
        assert rc == 0
        assert "fhelint: clean" in capsys.readouterr().out
