"""Smoke test of the ladder (about 35 s; not part of tier-1).

Runs ``python -m benchmarks.ladder run --smoke`` — one iteration or one
window per workload — and holds the output against ``BENCHMARK.json``.
Run it with ``pytest benchmarks/ladder/test_smoke.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks" / "ladder" / "bench.py"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_STAMP = {
    "cpu_model", "nproc", "python", "numpy", "numba", "backend_active",
    "backends_available", "thread_env", "git_commit", "git_dirty", "seed",
    "utc",
}


def _ladder(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.ladder", *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_smoke_set_reports_every_end_to_end_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = _ladder("run", "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert doc["comparable"] is False
    assert [run["workload"] for run in doc["runs"]] == [
        w["name"] for w in CONTRACT["workloads"]
    ]
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    for run in doc["runs"]:
        assert run["correct"], run["checks"]
        assert run["attempted"] >= 1 and run["failed"] == 0
        assert set(run["env"]) == ENV_STAMP
        assert {k: v["unit"] for k, v in run["end_to_end"].items()} == units
        assert all(v["value"] > 0 for v in run["end_to_end"].values())

    same = _ladder("compare", str(out), str(out))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout.split("verdict", 1)[1]


def test_traced_smoke_reports_every_per_layer_metric(tmp_path):
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(BENCH), "--workload", "logreg_bp28", "--smoke",
         "--trace", "1", "--trace-out", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert line["metrics"]["ckks.evaluator.explained_share"]["value"] > 0
    assert line["metrics"]["obs.trace_overhead_ratio"]["value"] > 0
    # A layer this workload never enters reads 0.
    assert line["metrics"]["serve.service.batches"]["value"] == 0
    events = json.loads(trace.read_text())
    assert events and all(e["ph"] == "X" for e in events)
    assert any(e["name"] == "iteration" for e in events)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only the contract and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "ladder", tmp_path / "benchmarks" / "ladder",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/bench.py", "--workload",
         "logreg_bp28", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
