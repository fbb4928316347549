#!/usr/bin/env python
"""Compare two commits on one ladder workload in alternating pairs.

Extracts both revisions with ``git archive`` into a scratch directory
(``$TMPDIR``), then runs ``benchmarks/ladder/bench.py --trace 0`` once
per revision per pair, each run in its own process, on the same seed
and for the contract's ``run_seconds``.  Odd pairs run the base first,
even pairs the head, so a machine that drifts over the session drifts
against both.  Appends one row to ``BENCH_pairs.json`` at this repo's
root:

- ``base``, ``head``: the two commits; ``workload``, ``seed``,
  ``seconds``, ``pairs``;
- ``env``: the ladder's environment header of the first (base) run;
- ``metrics``: per end-to-end metric of the contract, every pair's
  value on each side (the ladder's reference units), both medians,
  ``ratio`` (head median / base median), ``wins`` (pairs where the
  head did better), the base's ``base_q1``/``base_q3``, its
  ``base_spread`` (``(max - min) / median`` of the base runs) and
  ``resolved``: whether that spread is within the metric's contract
  ``bound``;
- ``failed_fraction``: every run's share of failed operations.

A claim holds when the head wins nearly every pair and its median clears
the base's inter-quartile range.  A metric that is not ``resolved``
moves as much between runs of one commit as the contract lets a change
move it, so its ratio is noise; the closing line names those metrics.  Usage::

    python benchmarks/bench_pairs.py HEAD^ HEAD --workload model_sweep \\
        --pairs 10 --seed 5309
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_pairs.json"
SCHEMA = 2


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO_ROOT), *args],
                          capture_output=True, check=True).stdout


def extract(rev: str, into: Path) -> str:
    """Unpack commit ``rev`` into ``into``; its full hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ladder run of ``workload`` in ``tree``; its result document."""
    out = tree / "pair.result.json"
    cmd = [sys.executable, "benchmarks/ladder/bench.py", "--workload",
           workload, "--seed", str(seed), "--trace", "0", "--out", str(out)]
    # A failed correctness check exits 1, and no row is written.
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def summarize(base: list[dict], head: list[dict], contract: dict) -> dict:
    """Per end-to-end metric: both sides' values pair by pair, medians,
    ratio, the head's wins, the base's quartiles and spread, and whether
    that spread resolves the metric's contract bound."""
    metrics = {}
    for spec in contract["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        before = [doc["end_to_end"][name]["value"] for doc in base]
        after = [doc["end_to_end"][name]["value"] for doc in head]
        q1, _, q3 = statistics.quantiles(before, n=4)
        base_median = statistics.median(before)
        head_median = statistics.median(after)
        spread = (max(before) - min(before)) / base_median if base_median else None
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": before,
            "head": after,
            "base_median": base_median,
            "head_median": head_median,
            "ratio": head_median / base_median if base_median else None,
            "wins": sum((b < a) if lower else (b > a)
                        for a, b in zip(before, after)),
            "base_q1": q1,
            "base_q3": q3,
            "base_spread": spread,
            "resolved": spread is not None and spread <= spec["bound"],
        }
    return metrics


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit compared against")
    parser.add_argument("head", help="the commit that claims the change")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="the workload seed of every run; pick one not "
                             "used while developing the change")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as scratch:
        trees = {side: Path(scratch) / side for side in ("base", "head")}
        commits = {side: extract(getattr(args, side), tree)
                   for side, tree in trees.items()}
        docs: dict[str, list[dict]] = {"base": [], "head": []}
        for pair in range(1, args.pairs + 1):
            order = ("base", "head") if pair % 2 else ("head", "base")
            for side in order:
                docs[side].append(run_once(trees[side], args.workload,
                                           args.seed))
            print(f"pair {pair}/{args.pairs}: " + ", ".join(
                f"{side} iter_p50_s "
                f"{docs[side][-1]['end_to_end']['iter_p50_s']['value']:.4g}"
                for side in order), file=sys.stderr)
    row = {
        "schema": SCHEMA,
        "base": commits["base"],
        "head": commits["head"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": docs["base"][0]["seconds"],
        "pairs": args.pairs,
        "env": docs["base"][0]["env"],
        "metrics": summarize(docs["base"], docs["head"], contract),
        "failed_fraction": {side: [doc["failed_fraction"] for doc in runs]
                            for side, runs in docs.items()},
    }
    ledger = json.loads(OUT.read_text()) if OUT.exists() else {"rows": []}
    ledger["rows"].append(row)
    OUT.write_text(json.dumps(ledger, indent=1) + "\n")
    claim = row["metrics"]["iter_p50_s"]
    unresolved = [name for name, stat in row["metrics"].items()
                  if not stat["resolved"]]
    print(f"appended row {len(ledger['rows'])} to {OUT.name}: "
          f"{args.workload} iter_p50_s {claim['base_median']:.4g} -> "
          f"{claim['head_median']:.4g} (x{claim['ratio']:.3f}), "
          f"head ahead in {claim['wins']}/{args.pairs}; unresolved "
          f"(base spread past the bound): {', '.join(unresolved) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
