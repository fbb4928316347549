"""``python -m benchmarks.ladder {run,repeat,compare}``.

``run`` executes each workload as its own ``bench.py`` process, one at a
time — exactly what the driver of ``BENCHMARK.json`` does — because two
end-to-end metrics are per process: ``peak_rss_mb`` is a high-water mark
that cannot be reset, and ``model_sweep``'s set-up is a cold-process
pass.  This parent only waits; all load comes from the one child.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.ladder import bench
from benchmarks.ladder.harness import (
    SCHEMA,
    load_contract,
    median,
    spread,
    table,
)

DEFAULT_OUT = "ladder.result.json"
TRACE_NAME = "ladder.trace.json"


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def run_set(workloads: list[str], seed: int, seconds: float | None,
            traced: bool, smoke: bool, scratch: Path):
    """Run each workload once.  Returns ``(docs, trace events, all ok)``."""
    docs, events, ok = [], [], True
    for lane, workload in enumerate(workloads, start=1):
        doc_path = scratch / f"{workload}.json"
        trace_path = scratch / f"{workload}.trace.json"
        command = [
            sys.executable, str(Path(bench.__file__)), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)),
            "--out", str(doc_path), "--trace-out", str(trace_path),
        ]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        if smoke:
            command.append("--smoke")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # Everything but the driver's JSON line, which the file repeats.
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        print()
        ok = ok and done.returncode == 0
        if not doc_path.exists():
            print(f"!! {workload} produced no result (exit {done.returncode})")
            continue
        docs.append(json.loads(doc_path.read_text()))
        if trace_path.exists():
            for event in json.loads(trace_path.read_text()):
                # One Chrome "process" per workload, lanes kept apart.
                event["pid"] = lane * 1000 + event["pid"]
                event["args"]["workload"] = workload
                events.append(event)
    return docs, events, ok


def write_result(path: Path, docs: list[dict]) -> None:
    path.write_text(json.dumps({
        "schema": SCHEMA,
        "env": docs[0]["env"] if docs else {},
        "comparable": all(doc["comparable"] for doc in docs),
        "runs": docs,
    }, indent=1) + "\n")


def fig13_table(docs: list[dict]) -> str | None:
    """Measured CPU kernel shares beside ``repro.cpu``'s, for LogReg."""
    by_name = {doc["workload"]: doc["notes"].get("fig13") for doc in docs}
    bp, rns = by_name.get("logreg_bp28"), by_name.get("logreg_rns60")
    if not bp or not rns:
        return None
    rows = [("Fig. 13 cross-check (LogReg)", "measured", "repro.cpu model")]
    rows.append((
        "rns60 / bp28 (iter_p50_s | cycles)",
        f"{rns['iter_p50_s'] / bp['iter_p50_s']:.3f}"
        f" ({rns['iter_p50_s']:.4g} s / {bp['iter_p50_s']:.4g} s)",
        f"{rns['cpu_model']['cycles'] / bp['cpu_model']['cycles']:.3f}",
    ))
    for label, fig in (("bp28", bp), ("rns60", rns)):
        for kernel in ("ntt", "base_convert", "pointwise"):
            rows.append((
                f"{label} {kernel} share",
                f"{fig['measured_shares'][kernel]:.3f}",
                f"{fig['cpu_model']['shares'][kernel]:.3f}",
            ))
    # The model's own Fig. 13 point, for scale: both schemes at 64-bit
    # words on the paper's LogReg/BS19 trace (disk cache left alone).
    from repro.eval import common, runner

    runner.configure(enabled=False)
    paper = [common.simulate_cpu("LogReg", "BS19", scheme, 64).cycles
             for scheme in ("rns-ckks", "bitpacker")]
    rows.append(("Fig. 13 LogReg/BS19 rns-ckks / bitpacker (w64)", "-",
                 f"{paper[0] / paper[1]:.3f}"))
    return (table(rows) + "\n(measured share = calls x rung / "
            "iteration; report only, no gate)")


def cmd_run(args) -> int:
    out = Path(args.out)
    with tempfile.TemporaryDirectory(dir=out.resolve().parent) as scratch:
        docs, events, ok = run_set(
            args.workload or list(bench.WORKLOADS), args.seed, args.seconds,
            args.traced, args.smoke, Path(scratch))
    write_result(out, docs)
    print(f"wrote {out}")
    if args.traced:
        trace_path = out.with_name(TRACE_NAME)
        trace_path.write_text(json.dumps(events) + "\n")
        print(f"wrote {trace_path} ({len(events)} spans)")
        cross_check = fig13_table(docs)
        if cross_check:
            print("\n" + cross_check)
    if args.smoke:
        print("SMOKE run: numbers are not comparable with any other run")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# compare / repeat
# ----------------------------------------------------------------------
def _values(docs: list[dict], workload: str, metric: str) -> list[float]:
    runs = [doc for doc in docs if doc["workload"] == workload]
    if metric == "failed_fraction":
        return [doc["failed_fraction"] for doc in runs]
    return [doc["end_to_end"][metric]["value"] for doc in runs]


def _fmt_spread(value: float | None) -> str:
    return "n/a" if value is None else f"{100 * value:.1f}%"


def compare_rows(old: list[dict], new: list[dict], contract: dict):
    """One row per (workload, end-to-end metric) present on both sides.

    Verdicts: ``regressed`` (median worse by more than the bound),
    ``improved`` (better by more than either side's spread, or every
    new run better than every old one), ``unresolved`` (the runs'
    spread is wider than the bound, so neither can be said), else
    ``ok``.  ``failed_fraction`` has no bound: any increase regresses.
    """
    metrics = [(m["name"], m["better"], m["bound"])
               for m in contract["end_to_end"]]
    metrics.append(("failed_fraction", "lower", 0.0))
    rows, regressed = [], False
    for workload in (w["name"] for w in contract["workloads"]):
        for name, better, bound in metrics:
            a, b = _values(old, workload, name), _values(new, workload, name)
            if not a or not b:
                continue
            base, now = median(a), median(b)
            sign = 1.0 if better == "lower" else -1.0
            if base == 0:
                worse_by = 0.0 if now == 0 else float("inf") * sign
                ratio = "n/a"
            else:
                worse_by = sign * (now - base) / abs(base)
                ratio = f"{now / base:.4f}"
            noise = max(spread(a) or 0.0, spread(b) or 0.0)
            if sign > 0:
                clean_win = max(b) < min(a)
            else:
                clean_win = min(b) > max(a)
            clean_win = clean_win and min(len(a), len(b)) > 1
            if noise > bound > 0 and not clean_win:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "regressed"
            elif clean_win or -worse_by > max(noise, bound):
                verdict = "improved"
            else:
                verdict = "ok"
            regressed = regressed or verdict == "regressed"
            rows.append((
                workload, name, f"{base:.6g}", f"{now:.6g}",
                f"{ratio} (/{base:.4g})", f"{100 * bound:g}%",
                f"{_fmt_spread(spread(a))}/{_fmt_spread(spread(b))}", verdict,
            ))
    return rows, regressed


HEADER = ("workload", "metric", "old median", "new median", "new/old (base)",
          "bound", "spread old/new", "verdict")


def _load_runs(path: str) -> list[dict]:
    doc = json.loads(Path(path).read_text())
    if not doc.get("comparable", True):
        print(f"warning: {path} holds smoke numbers; they compare to nothing")
    return doc["runs"]


def cmd_compare(args) -> int:
    rows, regressed = compare_rows(
        _load_runs(args.old), _load_runs(args.new), load_contract())
    print(table([HEADER] + rows))
    return 1 if regressed else 0


def cmd_repeat(args) -> int:
    """Two sets of runs of the same code must agree within the bounds.

    The driver's acceptance rule, on one run a side instead of ten: no
    metric of the second set may be worse than the first by more than
    its bound.
    """
    out = Path(args.out)
    workloads = args.workload or list(bench.WORKLOADS)
    sets, ok = [], True
    with tempfile.TemporaryDirectory(dir=out.resolve().parent) as scratch:
        for offset in (0, 1):
            print(f"#### set {offset + 1} of 2 (seed {args.seed + offset})")
            docs, _, set_ok = run_set(
                workloads, args.seed + offset, args.seconds, False, False,
                Path(scratch))
            sets.append(docs)
            ok = ok and set_ok
    write_result(out, sets[0] + sets[1])
    rows, regressed = compare_rows(sets[0], sets[1], load_contract())
    print(table([HEADER] + rows))
    agree = ok and not regressed
    print(f"wrote {out}; the two sets "
          f"{'agree within' if agree else 'DISAGREE beyond'} the bounds")
    return 0 if agree else 1


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ladder")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_run_options(sub) -> None:
        sub.add_argument("--workload", action="append", choices=bench.WORKLOADS,
                         help="repeatable; default: all six")
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=None,
                         help="timed part per workload "
                              "(default: BENCHMARK.json run_seconds)")
        sub.add_argument("--out", default=DEFAULT_OUT)

    run = commands.add_parser("run", help="run the workloads once")
    add_run_options(run)
    run.add_argument("--traced", action="store_true",
                     help="add driver-side spans, rungs, per-layer metrics")
    run.add_argument("--smoke", action="store_true",
                     help="one iteration / one window each; not comparable")
    run.set_defaults(handler=cmd_run)

    repeat = commands.add_parser(
        "repeat", help="run the untraced set twice and check agreement")
    add_run_options(repeat)
    repeat.set_defaults(handler=cmd_repeat)

    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("old")
    compare.add_argument("new")
    compare.set_defaults(handler=cmd_compare)

    args = parser.parse_args(argv)
    return args.handler(args)
