"""Schema of the committed paired comparisons, ``BENCH_pairs.json``.

Every row compares two commits on one workload of ``BENCHMARK.json``
(the ladder's contract) and must carry, for each end-to-end metric,
every pair's value on both sides and the summary a claim is read from:
both medians, their ratio, the head's wins and the base's quartiles.
Rows from schema 2 on also carry the base's spread and whether it
resolves the metric's bound; schema-1 rows are kept as recorded.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

from benchmarks.bench_pairs import summarize

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in CONTRACT["workloads"]}
METRICS = {m["name"]: m for m in CONTRACT["end_to_end"]}
ROWS = json.loads((ROOT / "BENCH_pairs.json").read_text())["rows"]
_SHA = re.compile(r"[0-9a-f]{40}")


def check_metrics(metrics: dict, pairs: int, schema: int = 2) -> None:
    assert list(metrics) == list(METRICS)
    for name, stat in metrics.items():
        spec = METRICS[name]
        assert (stat["unit"], stat["better"]) == (spec["unit"], spec["better"])
        assert len(stat["base"]) == len(stat["head"]) == pairs
        assert stat["base_median"] == statistics.median(stat["base"])
        assert stat["head_median"] == statistics.median(stat["head"])
        if stat["base_median"]:
            assert stat["ratio"] == pytest.approx(
                stat["head_median"] / stat["base_median"])
        assert stat["base_q1"] <= stat["base_median"] <= stat["base_q3"]
        lower = spec["better"] == "lower"
        assert stat["wins"] == sum(
            (h < b) if lower else (h > b)
            for b, h in zip(stat["base"], stat["head"]))
        if schema >= 2:
            base = stat["base"]
            spread = (max(base) - min(base)) / stat["base_median"]
            assert stat["base_spread"] == pytest.approx(spread)
            assert stat["resolved"] == (spread <= spec["bound"])


@pytest.mark.parametrize(
    "row", ROWS,
    ids=[f"{row['workload']}-{row['head'][:7]}-{row['seed']}" for row in ROWS])
def test_row_covers_the_contract(row):
    assert row["schema"] in (1, 2)
    assert _SHA.fullmatch(row["base"]) and _SHA.fullmatch(row["head"])
    assert row["base"] != row["head"]
    assert row["workload"] in WORKLOADS
    assert row["pairs"] >= 2 and row["seconds"] > 0
    assert row["env"]["cpu_model"]
    check_metrics(row["metrics"], row["pairs"], row["schema"])
    for side in ("base", "head"):
        fractions = row["failed_fraction"][side]
        assert len(fractions) == row["pairs"]
        assert all(0.0 <= f <= 1.0 for f in fractions)


def test_rows_recorded():
    assert ROWS


def _doc(values: dict[str, float]) -> dict:
    return {"end_to_end": {m: {"value": v} for m, v in values.items()}}


def test_summarize_matches_the_schema():
    """The script's summary of synthetic runs passes the same checks,
    counting wins in each metric's own direction."""
    base = [_doc({m: 10.0 + i for m in METRICS}) for i in (2, 0, 1, 3)]
    head = [_doc({m: 10.5 + i for m in METRICS}) for i in (0, 1, 3, 2)]
    metrics = summarize(base, head, CONTRACT)
    check_metrics(metrics, 4)
    # Pairs (12, 10.5), (10, 11.5), (11, 13.5), (13, 12.5).
    assert metrics["iter_p50_s"]["wins"] == 2
    assert metrics["throughput_rps"]["wins"] == 2
    assert metrics["iter_p50_s"]["base_median"] == 11.5
    assert metrics["iter_p50_s"]["head_median"] == 12.0
    assert metrics["iter_p50_s"]["ratio"] == pytest.approx(12.0 / 11.5)
    # Base runs 10..13 spread 3 / 11.5 = 0.26: past every bound.
    assert metrics["iter_p50_s"]["base_spread"] == pytest.approx(3 / 11.5)
    assert not metrics["iter_p50_s"]["resolved"]


def test_a_tight_base_resolves():
    base = [_doc({m: 10.0 + 0.1 * i for m in METRICS}) for i in range(5)]
    head = [_doc({m: 9.0 for m in METRICS}) for _ in range(5)]
    metrics = summarize(base, head, CONTRACT)
    check_metrics(metrics, 5)
    assert all(stat["resolved"] for stat in metrics.values())
