"""CLI tests (invoked in-process)."""

import pytest

from repro.cli import FIGURES, main
from repro.eval import runner


@pytest.fixture()
def figure_args(tmp_path):
    """Isolated --cache-dir/--results-dir args; restores runner config.

    ``figure`` reconfigures the process-global cache, so every CLI
    figure test must pin it to a tmp dir and put it back afterwards.
    """
    previous = runner.active_cache()
    yield [
        "--cache-dir", str(tmp_path / "cache"),
        "--results-dir", str(tmp_path / "results"),
    ]
    runner._ACTIVE = previous


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


class TestCompareCommand:
    def test_compare_runs(self, capsys):
        rc = main(["compare", "--word", "28"])
        assert rc == 0
        assert "gmean" in capsys.readouterr().out


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
        self, capsys, tmp_path, figure_args
    ):
        """Ctrl-C in the publish window leaves no torn or temp files."""
        from repro.eval import faults

        results = tmp_path / "results"
        with faults.injected("result:interrupt@0"):
            rc = main(["figure", "fig10", *figure_args])
        assert rc == 130
        assert "[fig10] interrupted" in capsys.readouterr().err
        out = results / "fig10_energy_breakdown.txt"
        assert not out.exists()
        assert list(results.glob("*.tmp")) == []
        # A clean re-run publishes the full output.
        assert main(["figure", "fig10", *figure_args]) == 0
        assert "Fig. 10" in out.read_text()

    def test_result_write_crash_counts_as_failure(
        self, capsys, tmp_path, figure_args
    ):
        """A non-interrupt crash mid-publish fails the figure cleanly."""
        from repro.eval import faults

        results = tmp_path / "results"
        with faults.injected("result:raise@0"):
            rc = main(["figure", "fig10", *figure_args])
        assert rc == 1
        assert "[fig10] FAILED" in capsys.readouterr().err
        assert not (results / "fig10_energy_breakdown.txt").exists()
        assert list(results.glob("*.tmp")) == []

    def test_warm_rerun_served_from_cache(self, capsys, figure_args):
        """Second CLI invocation reads everything back from disk."""
        from repro.eval import common

        common.clear_memory_caches()  # force the cold run onto disk
        assert main(["figure", "fig11", *figure_args]) == 0
        common.clear_memory_caches()
        assert main(["figure", "fig11", *figure_args]) == 0
        # Each invocation installs a fresh cache object, so these
        # counters cover the warm run only.
        cache = runner.active_cache()
        assert cache.miss_count() == 0
        assert cache.hit_count("simulate") > 0
        assert "0 misses" in capsys.readouterr().err

    def test_registry_complete(self):
        expected = {
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "fig18", "fig19", "table1", "sec61", "sec62", "sec63",
        }
        assert set(FIGURES) == expected


class TestListFigures:
    def test_lists_all(self, capsys):
        rc = main(["list-figures"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out


class TestLintCommand:
    def test_default_path_resolves_installed_package(
        self, capsys, tmp_path, monkeypatch
    ):
        """``lint`` with no paths must work from any working directory."""
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", "--rules", "exception-hygiene"])
        assert rc == 0
        assert "fhelint: clean" in capsys.readouterr().out
