#!/usr/bin/env python
"""Append one stamped row of ladder results to ``BENCH_ladder.json``.

Runs ``python -m benchmarks.ladder run`` (every ``BENCHMARK.json``
workload once, each in its own process) three times in a checkout, with
seeds 1, 2 and 3, and appends one row to ``BENCH_ladder.json`` at this
repo's root:

- ``env``: the ladder's environment header of the first run (machine,
  python, numpy, backend, git commit and dirty flag);
- ``workloads``: per workload, the median and quartiles over the runs of
  every end-to-end metric in the contract, in the ladder's reference
  units, plus the worst run's ``failed_fraction``.

The ladder itself is not touched.  Usage::

    python benchmarks/bench_ladder.py --label "walk memo"
    python benchmarks/bench_ladder.py --checkout ../parent --label parent
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_ladder.json"
SCHEMA = 1
#: Full ladder runs per row, and their seeds.
SEEDS = (1, 2, 3)


def summarize(docs: list[dict], contract: dict) -> dict:
    """Per workload x end-to-end metric: median and q1/q3 over the runs."""
    workloads = {}
    for workload in (w["name"] for w in contract["workloads"]):
        runs = [doc for doc in docs if doc["workload"] == workload]
        metrics = {}
        for spec in contract["end_to_end"]:
            values = [doc["end_to_end"][spec["name"]]["value"] for doc in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[spec["name"]] = {
                "median": median, "q1": q1, "q3": q3, "unit": spec["unit"]}
        workloads[workload] = {
            "runs": len(runs),
            "failed_fraction": max(doc["failed_fraction"] for doc in runs),
            "metrics": metrics,
        }
    return workloads


def run_ladder(checkout: Path) -> list[dict]:
    """One full ladder run per seed in ``checkout``; every workload's doc."""
    docs = []
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            out = Path(scratch) / f"run{seed}.json"
            subprocess.run(
                [sys.executable, "-m", "benchmarks.ladder", "run",
                 "--seed", str(seed), "--out", str(out)],
                cwd=checkout, env=env, check=True)
            docs += json.loads(out.read_text())["runs"]
    return docs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=REPO_ROOT,
                        help="tree to measure (default: this one)")
    parser.add_argument("--label", required=True,
                        help="what the row measures, e.g. the change's title")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    contract = json.loads((checkout / "BENCHMARK.json").read_text())
    # A failed correctness check fails the ladder run, and no row is written.
    docs = run_ladder(checkout)
    row = {
        "schema": SCHEMA,
        "label": args.label,
        "seeds": list(SEEDS),
        "env": docs[0]["env"],
        "workloads": summarize(docs, contract),
    }
    ledger = json.loads(OUT.read_text()) if OUT.exists() else {"rows": []}
    ledger["rows"].append(row)
    OUT.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"appended row {len(ledger['rows'])} ({args.label!r}) to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
