"""Tests for the ablation harnesses."""

from repro.eval import ablations


class TestScaleDownAblation:
    def test_single_pass_cheaper(self):
        rows = ablations.run_scale_down_ablation(r_values=(10, 40))
        for r in rows:
            assert r.single_pass_cycles < r.iterated_cycles
        # The single CRB pass keeps its edge at high R.
        assert rows[-1].saving >= rows[0].saving * 0.9

    def test_saving_grows_with_shed_count(self):
        shed1 = ablations.run_scale_down_ablation(r_values=(40,), shed=1)[0]
        shed4 = ablations.run_scale_down_ablation(r_values=(40,), shed=4)[0]
        assert shed4.saving > shed1.saving

    def test_render(self):
        rows = ablations.run_scale_down_ablation(r_values=(20,))
        assert "scaleDown" in ablations.render_scale_down(rows)


class TestToleranceAblation:
    def test_runs_at_small_n(self):
        rows = ablations.run_tolerance_ablation(tolerances=(0.5, 2.0), n=1024)
        assert len(rows) == 2
        # Looser windows never *increase* the residue count.
        assert rows[1].top_residues <= rows[0].top_residues
        for r in rows:
            assert r.max_scale_drift_bits <= max(r.tolerance_bits, 0.5) + 16.0

    def test_render(self):
        rows = ablations.run_tolerance_ablation(tolerances=(0.5,), n=1024)
        assert "window" in ablations.render_tolerance(rows)


class TestDigitsAblation:
    def test_three_configs(self):
        rows = ablations.run_digits_ablation(digit_counts=(2, 3))
        assert [r.ks_digits for r in rows] == [2, 3]
        assert all(r.gmean_time_ms > 0 for r in rows)

    def test_render(self):
        rows = ablations.run_digits_ablation(digit_counts=(3,))
        assert "digit" in ablations.render_digits(rows)
