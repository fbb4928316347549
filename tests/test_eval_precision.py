"""Precision-experiment harness tests (Figs. 18-19, Table 1), small sizes."""

import pytest

from repro.eval import fig18, fig19, table1
from repro.eval.precision import (
    adjust_error_samples,
    box_stats,
    precision_context,
    rescale_error_samples,
)

# Tiny settings: n=256, 3 samples, 2 scales — the real experiments use
# larger values via the benchmark harness.
TINY = dict(samples=3, n=256)


class TestPrecisionMachinery:
    def test_chain_cached_context_fresh(self):
        a = precision_context("bitpacker", 30.0, levels=3, n=256)
        b = precision_context("bitpacker", 30.0, levels=3, n=256)
        assert a.chain is b.chain
        assert a is not b  # a context's rng is consumed by every use

    def test_samples_do_not_depend_on_what_ran_before(self):
        """Regression: Figs. 18 and 19 shared one lru_cached context, so
        ``figure fig19`` and ``figure fig18 fig19`` wrote different
        files."""
        alone = adjust_error_samples("bitpacker", 30.0, 2, n=256, levels=3)
        rescale_error_samples("bitpacker", 30.0, 2, n=256, levels=3)
        after = adjust_error_samples("bitpacker", 30.0, 2, n=256, levels=3)
        assert after == alone

    def test_rescale_samples_track_scale(self):
        lo = rescale_error_samples("bitpacker", 25.0, 2, n=256, levels=3)
        hi = rescale_error_samples("bitpacker", 40.0, 2, n=256, levels=3)
        assert min(hi) > max(lo)  # larger scale -> more precision

    def test_adjust_samples_positive(self):
        data = adjust_error_samples("rns-ckks", 30.0, 2, n=256, levels=3)
        assert all(bits > 5 for bits in data)

    def test_box_stats_ordering(self):
        stats = box_stats([3.0, 1.0, 2.0, 5.0, 4.0])
        assert (
            stats["min"] <= stats["q1"] <= stats["median"]
            <= stats["q3"] <= stats["max"]
        )
        assert stats["min"] == 1.0 and stats["max"] == 5.0


class TestFig18:
    def test_schemes_match_within_margin(self):
        rows = fig18.run(scales=(25.0, 35.0), **TINY)
        by_key = {(r.scale_bits, r.scheme): r for r in rows}
        for scale in (25.0, 35.0):
            gap = abs(
                by_key[(scale, "bitpacker")].stats["median"]
                - by_key[(scale, "rns-ckks")].stats["median"]
            )
            assert gap < 2.5  # paper: within the 0.5-bit margin at 1M samples

    def test_precision_grows_with_scale(self):
        rows = fig18.run(scales=(25.0, 40.0), **TINY)
        bp = {r.scale_bits: r for r in rows if r.scheme == "bitpacker"}
        assert bp[40.0].stats["median"] > bp[25.0].stats["median"] + 5

    def test_render(self):
        rows = fig18.run(scales=(25.0,), **TINY)
        assert "Fig. 18" in fig18.render(rows)


class TestFig19:
    def test_adjust_matches_between_schemes(self):
        rows = fig19.run(scales=(30.0,), **TINY)
        meds = [r.stats["median"] for r in rows]
        assert abs(meds[0] - meds[1]) < 2.5

    def test_render(self):
        rows = fig19.run(scales=(30.0,), **TINY)
        assert "Fig. 19" in fig19.render(rows)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1.run(samples=1, n=256)

    def test_all_benchmarks_present(self, rows):
        assert {r.benchmark for r in rows} == {
            "ResNet-20", "ResNet-20+AESPA", "RNN", "SqueezeNet", "LogReg",
        }

    def test_schemes_agree_within_bits(self, rows):
        """The paper's headline accuracy claim (<= ~1 bit difference; we
        allow slack for the tiny sample count)."""
        for r in rows:
            assert abs(r.bp_mean - r.rns_mean) < 3.0

    def test_worst_not_above_mean(self, rows):
        for r in rows:
            assert r.bp_worst <= r.bp_mean + 1e-9
            assert r.rns_worst <= r.rns_mean + 1e-9

    def test_unstable_apps_less_precise(self, rows):
        by_name = {r.benchmark: r for r in rows}
        assert by_name["ResNet-20+AESPA"].bp_mean < by_name["ResNet-20"].bp_mean

    def test_render(self, rows):
        assert "Table 1" in table1.render(rows)
