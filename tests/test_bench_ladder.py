"""Schema of the committed ladder trajectory, ``BENCH_ladder.json``.

Every row must name each workload and each end-to-end metric that
``BENCHMARK.json`` (the ladder's contract) declares, with ordered
quartiles, so a row can be compared with any other row or a fresh run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.bench_ladder import summarize

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
METRICS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
ROWS = json.loads((ROOT / "BENCH_ladder.json").read_text())["rows"]


def check_workloads(workloads: dict) -> None:
    assert list(workloads) == WORKLOADS
    for summary in workloads.values():
        assert summary["runs"] >= 1
        assert 0.0 <= summary["failed_fraction"] <= 1.0
        assert set(summary["metrics"]) == set(METRICS)
        for name, stat in summary["metrics"].items():
            assert stat["unit"] == METRICS[name]
            assert stat["q1"] <= stat["median"] <= stat["q3"]


def test_six_workloads_in_the_contract():
    assert len(WORKLOADS) == 6


@pytest.mark.parametrize("row", ROWS, ids=[row["label"] for row in ROWS])
def test_row_covers_the_contract(row):
    assert row["schema"] == 1
    assert row["env"]["git_commit"]
    assert row["env"]["cpu_model"]
    check_workloads(row["workloads"])


def test_rows_recorded():
    assert ROWS


def test_summarize_matches_the_schema():
    """The script's summary of synthetic runs passes the same checks."""
    docs = [
        {"workload": w, "failed_fraction": 0.0,
         "end_to_end": {m: {"value": float(seed + i)}
                        for i, m in enumerate(METRICS)}}
        for seed in (3, 1, 2) for w in WORKLOADS
    ]
    workloads = summarize(docs, CONTRACT)
    check_workloads(workloads)
    first = workloads[WORKLOADS[0]]["metrics"][next(iter(METRICS))]
    assert first["median"] == 2.0
