#!/usr/bin/env python3
"""Run one ladder workload in this process and print its metrics.

This is the command ``BENCHMARK.json`` names::

    python3 benchmarks/ladder/bench.py --workload logreg_bp28 --seed 1 \
        --seconds 10 --trace 0

It needs nothing on ``PYTHONPATH``: the repo's ``src/`` is found from
this file's own location (and the run refuses to start without it).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — every ``end_to_end`` metric
with ``--trace 0``, every ``per_layer`` metric with ``--trace 1`` (a
metric of a layer the workload never enters reads 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = (
    "logreg_bp28", "logreg_rns60", "bootstrap_bp28",
    "model_sweep", "serve_hot", "serve_mixed",
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed part (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one iteration / one window; not comparable")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--trace-out",
                        help="write the Chrome trace of a traced run here")
    return parser


def _run_workload(name: str, seed: int, seconds: float, traced: bool,
                  smoke: bool):
    # Imported per workload: model_sweep's cold pass (its set-up time)
    # must not find the FHE stack already loaded, and vice versa.
    if name == "model_sweep":
        from benchmarks.ladder import model as module
    elif name.startswith("serve_"):
        from benchmarks.ladder import serve as module
    else:
        from benchmarks.ladder import fhe as module
    return module.run(name, seed, seconds, traced, smoke)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench.py: no program to measure at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.ladder import harness

    harness.pin_threads()  # before numpy loads
    from benchmarks.ladder import report

    contract = harness.load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    traced = bool(args.trace)
    result = _run_workload(args.workload, args.seed, seconds, traced, args.smoke)
    doc = report.result_document(result, contract, args.seed, seconds,
                                 traced, args.smoke)
    print(report.render(doc))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace_out and traced:
        Path(args.trace_out).write_text(json.dumps(result.trace_events) + "\n")
    print(json.dumps(report.driver_line(doc, traced)))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
