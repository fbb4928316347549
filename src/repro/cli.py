"""Command-line interface: plan chains and regenerate paper experiments.

Usage (``python -m repro ...``)::

    python -m repro plan --scheme bitpacker --n 1024 --word 28 \\
        --scale 40 --levels 6
    python -m repro figure fig11 fig15
    python -m repro figure fig14 fig18 --keep-going
    python -m repro figure fig14 --profile
    python -m repro obs-report results/fig14_word_size_sweep.profile.json
    python -m repro obs-report old.profile.json new.profile.json
    python -m repro obs-report --chrome-out trace.json fig14.profile.json
    python -m repro list-figures
    python -m repro lint src/repro
    python -m repro lint --format json --output fhelint.json
    python -m repro verify-trace
    python -m repro verify-trace my_schedule.json --format json
    python -m repro compile-trace --format json --output savings.json

``figure`` runs every experiment cold, in one process: Ctrl-C exits 130
with completed figures flushed to ``results/`` (DESIGN.md Sec. 8).  With
``--profile`` each figure also writes ``results/<stem>.profile.json``
— span tree, counters, and the per-kernel cycle/energy attribution —
and prints a rendered summary; ``obs-report`` renders, diffs, or
converts those documents (DESIGN.md Sec. 9).  ``lint`` checks source
(fhelint, DESIGN.md Sec. 7); ``verify-trace`` certifies schedules
(Sec. 11).

A :class:`~repro.errors.ReproError` from any command is one ``error:``
line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ParameterError, ReproError
from repro.schemes import plan_chain

#: Figure/table name -> (harness, results/ file stem, runtime note).  The
#: harness is a module with ``run()`` and ``render()``, or
#: ``module:run,render`` naming the two.  One entry per committed
#: ``results/*.txt``.  Notes are measured cold runs on a 2-core machine
#: (all 17 together, in one process: about 19 s).
FIGURES: dict[str, tuple[str, str, str]] = {
    "fig10": ("repro.eval.fig10", "fig10_energy_breakdown", "instant"),
    "fig11": ("repro.eval.fig11", "fig11_exec_time_28bit", "~1 s"),
    "fig12": ("repro.eval.fig12", "fig12_energy_28bit", "~1 s"),
    "fig13": ("repro.eval.fig13", "fig13_cpu", "~1 s"),
    "fig14": ("repro.eval.fig14", "fig14_word_size_sweep", "~5 s"),
    "fig15": ("repro.eval.fig15", "fig15_slowdown",
              "~5 s; instant after fig14"),
    "fig16": ("repro.eval.fig16", "fig16_perf_per_area",
              "~5 s; instant after fig14"),
    "fig17": ("repro.eval.fig17", "fig17_scratchpad_sweep", "~2 s"),
    "fig18": ("repro.eval.fig18", "fig18_rescale_precision",
              "~8 s, real encrypted arithmetic"),
    "fig19": ("repro.eval.fig19", "fig19_adjust_precision",
              "~3 s, real encrypted arithmetic"),
    "table1": ("repro.eval.table1", "table1_mantissa_bits",
               "~4 s, real encrypted arithmetic"),
    "sec61": ("repro.eval.security", "sec61_security_params", "~1 s"),
    "sec62": ("repro.eval.sharp", "sec62_sharp_comparison", "~1 s"),
    "sec63": ("repro.eval.area_reduction", "sec63_area_reduction", "~1 s"),
    "ablation_scale_down": (
        "repro.eval.ablations:run_scale_down_ablation,render_scale_down",
        "ablation_scale_down", "instant"),
    "ablation_ks_digits": (
        "repro.eval.ablations:run_digits_ablation,render_digits",
        "ablation_ks_digits", "~2 s"),
    "ablation_tolerance_window": (
        "repro.eval.ablations:run_tolerance_ablation,render_tolerance",
        "ablation_tolerance_window", "instant"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BitPacker (ASPLOS 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan and print a modulus chain")
    plan.add_argument("--scheme", choices=["bitpacker", "rns-ckks", "both"],
                      default="both")
    plan.add_argument("--n", type=int, default=1024, help="ring degree N")
    plan.add_argument("--word", type=int, default=28, help="hardware word bits")
    plan.add_argument("--scale", type=float, default=40.0,
                      help="target scale bits per level")
    plan.add_argument("--levels", type=int, default=6)
    plan.add_argument("--base", type=float, default=60.0,
                      help="level-0 modulus bits (Qmin)")
    plan.add_argument("--digits", type=int, default=3,
                      help="keyswitch digits")

    figure = sub.add_parser("figure", help="regenerate paper figures/tables")
    figure.add_argument(
        "names", nargs="+", metavar="NAME",
        help="figures/tables to regenerate (see `repro list-figures`)",
    )
    figure.add_argument(
        "--results-dir", default="results", metavar="DIR",
        help="where to write <figure>.txt outputs (default: results/)",
    )
    figure.add_argument(
        "--keep-going", action="store_true",
        help="after one figure fails, still run the remaining ones "
             "(exit non-zero at the end)",
    )
    figure.add_argument(
        "--profile", action="store_true",
        help="record a profile per figure (span tree, counters, kernel "
             "accounting) to results/<figure>.profile.json",
    )

    report = sub.add_parser(
        "obs-report",
        help="render, diff, or convert profile documents",
    )
    report.add_argument(
        "profiles", nargs="+", metavar="PROFILE",
        help="one profile file (summary) or two (old-vs-new diff)",
    )
    report.add_argument(
        "--chrome-out", default=None, metavar="PATH",
        help="convert one profile's span tree to Chrome trace_event "
             "JSON (load in chrome://tracing or Perfetto)",
    )

    sub.add_parser("list-figures", help="list available experiments")

    lint = sub.add_parser("lint", help="run the fhelint static passes")
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: the installed "
             "repro package)",
    )
    lint.add_argument(
        "--rules", nargs="+", default=None, metavar="RULE",
        help="run only these rule ids (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the rule ids and exit",
    )
    _add_format_options(lint)

    verify = sub.add_parser(
        "verify-trace",
        help="statically verify FHE schedules (abstract interpretation)",
    )
    verify.add_argument(
        "paths", nargs="*", metavar="TRACE.json",
        help="trace files (HeTrace JSON, single object or list); default: "
             "the bundled paper workload traces",
    )
    verify.add_argument(
        "--schemes", nargs="+", default=("bitpacker", "rns-ckks"),
        choices=["bitpacker", "rns-ckks"], metavar="SCHEME",
        help="schedules to generate for the bundled workloads "
             "(default: both)",
    )
    verify.add_argument(
        "--word", type=int, default=28, metavar="BITS",
        help="hardware word size for the bundled workloads (default: 28)",
    )
    verify.add_argument(
        "--list-rules", action="store_true",
        help="list the verifier's rule ids and exit",
    )
    _add_format_options(verify)

    compile_ = sub.add_parser(
        "compile-trace",
        help="optimize FHE schedules through the trace compiler "
             "(absint-certified rewrites + chain re-planning)",
    )
    compile_.add_argument(
        "paths", nargs="*", metavar="TRACE.json",
        help="trace files (HeTrace JSON, single object or list); default: "
             "the bundled paper workload traces",
    )
    compile_.add_argument(
        "--schemes", nargs="+", default=("bitpacker", "rns-ckks"),
        choices=["bitpacker", "rns-ckks"], metavar="SCHEME",
        help="schemes to compile for (default: both)",
    )
    compile_.add_argument(
        "--word", type=int, default=28, metavar="BITS",
        help="hardware word size (default: 28)",
    )
    compile_.add_argument(
        "--require-savings", action="store_true",
        help="exit non-zero unless the batch saves at least one level "
             "or one log2(Q) bit in aggregate (the CI gate)",
    )
    _add_format_options(compile_)
    return parser


def _add_format_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="format", metavar="FMT",
        help="report format: text (default) or json",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )


def _cmd_plan(args) -> int:
    schemes = (
        ["bitpacker", "rns-ckks"] if args.scheme == "both" else [args.scheme]
    )
    for scheme in schemes:
        chain = plan_chain(
            scheme,
            n=args.n,
            word_bits=args.word,
            level_scale_bits=args.scale,
            levels=args.levels,
            base_bits=args.base,
            ks_digits=args.digits,
        )
        print(chain.describe())
        top = chain.max_level
        utilization = chain.log2_q_at(top) / (
            chain.residues_at(top) * args.word
        )
        print(
            f"  -> R={chain.residues_at(top)} at the top level, "
            f"datapath utilization {utilization:.0%}\n"
        )
    return 0


def write_text_atomic(path: Path, text: str) -> None:
    """Publish an output file atomically (temp + ``os.replace``).

    The one writer for everything the CLIs publish: figure tables,
    profiles and reports.  A crash or Ctrl-C
    mid-write must never leave a torn or partial output: readers see the
    previous content or the new one, nothing in between.  The temp file
    is removed on any failure, including one in the window between the
    write and the rename.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # best-effort tmp cleanup
            pass
        raise


def _write_figure_profile(
    name: str, stem: str, results_dir: Path
) -> tuple[Path, dict] | None:
    """Assemble and atomically publish one figure's profile document."""
    import json

    from repro import obs
    from repro.eval import common

    roots = obs.take_roots()
    if not roots:
        return None
    doc = obs.build_profile(
        name,
        roots[-1],
        obs.epoch(),
        obs.counters(),
        memory_caches=common.memory_cache_stats(),
    )
    path = results_dir / f"{stem}.profile.json"
    write_text_atomic(path, json.dumps(doc, indent=1) + "\n")
    return path, doc


def _cmd_figure(args) -> int:
    import importlib
    import time
    import traceback

    from repro.eval import common

    unknown = [name for name in args.names if name not in FIGURES]
    if unknown:
        raise ParameterError(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(choose from: {', '.join(sorted(FIGURES))})"
        )
    profiling = args.profile
    if profiling:
        from repro import obs

        obs.enable()
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    interrupted = False
    for name in args.names:
        harness, stem, note = FIGURES[name]
        module_path, _, callables = harness.partition(":")
        run_name, render_name = (callables or "run,render").split(",")
        print(f"[{name}] running ({note})", file=sys.stderr)
        started = time.monotonic()
        if profiling:
            # Fresh recorder per figure; dropping the memory caches makes
            # every unique point pass through common.simulate's body so
            # the kernel-accounting counters see it.
            obs.reset()
            common.clear_memory_caches()
        try:
            module = importlib.import_module(module_path)
            run = getattr(module, run_name)
            if profiling:
                with obs.span(f"figure/{name}"):
                    data = run()
            else:
                data = run()
            text = getattr(module, render_name)(data)
            out_path = results_dir / f"{stem}.txt"
            write_text_atomic(out_path, text + "\n")
            profile = (
                _write_figure_profile(name, stem, results_dir)
                if profiling
                else None
            )
        except KeyboardInterrupt:
            # Every finished figure is already in results/.
            print(f"[{name}] interrupted", file=sys.stderr)
            interrupted = True
            break
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            print(f"[{name}] FAILED: {exc}", file=sys.stderr)
            failed.append(name)
            if args.keep_going:
                continue
            break
        elapsed = time.monotonic() - started
        print(f"[{name}] done in {elapsed:.1f}s -> {out_path}", file=sys.stderr)
        print(text)
        print()
        if profile is not None:
            from repro import obs

            profile_path, doc = profile
            print(f"[{name}] profile -> {profile_path}", file=sys.stderr)
            print(obs.render_summary(doc))
            print()
    if profiling:
        # Leave the process the way we found it: a later in-process run
        # (tests call main() repeatedly) must not keep recording.
        obs.disable()
        obs.reset()
    if interrupted:
        print(
            f"[figure] interrupted — completed figures are in {results_dir}/",
            file=sys.stderr,
        )
        return 130
    if failed:
        print(f"[figure] failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_report(args) -> int:
    import json

    from repro import obs

    if args.chrome_out:
        if len(args.profiles) != 1:
            raise ParameterError("--chrome-out takes exactly one profile file")
        doc = obs.load_profile(args.profiles[0])
        events = obs.chrome_trace(doc["span_tree"])
        out = Path(args.chrome_out)
        write_text_atomic(out, json.dumps(events, indent=1) + "\n")
        print(f"wrote {len(events)} trace events -> {out}")
        return 0
    if len(args.profiles) == 1:
        print(obs.render_summary(obs.load_profile(args.profiles[0])))
        return 0
    if len(args.profiles) == 2:
        old = obs.load_profile(args.profiles[0])
        new = obs.load_profile(args.profiles[1])
        print(obs.diff_profiles(old, new))
        return 0
    raise ParameterError(
        "obs-report takes one profile file (summary) or two (diff)"
    )


def _cmd_list_figures(_args) -> int:
    for name, (harness, _stem, note) in sorted(FIGURES.items()):
        print(f"{name:25s} {harness:28s} ({note})")
    return 0


def _emit_report(args, findings, rule_docs) -> None:
    """Render findings per ``--format`` to stdout or ``--output``."""
    from repro.analysis.report import render_findings

    text = render_findings(findings, args.format, rule_docs)
    if args.output:
        out = Path(args.output)
        write_text_atomic(out, text if text.endswith("\n") else text + "\n")
        print(
            f"wrote {len(findings)} finding(s) [{args.format}] -> {out}",
            file=sys.stderr,
        )
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_lint(args) -> int:
    from repro.analysis import PASSES, run_lint

    if args.list_rules:
        for lint_pass in PASSES:
            print(f"{lint_pass.rule:20s} {lint_pass.description}")
        return 0
    if args.paths:
        paths = args.paths
    else:
        import repro

        paths = [str(Path(repro.__file__).resolve().parent)]
    findings = run_lint(paths, rules=args.rules)
    _emit_report(args, findings, {p.rule: p.description for p in PASSES})
    return 1 if findings else 0


def _load_trace_file(path: Path):
    """HeTrace objects from one JSON file (single object or list)."""
    import json

    from repro.trace.program import HeTrace

    data = json.loads(path.read_text())
    entries = data if isinstance(data, list) else [data]
    return [HeTrace.from_dict(entry) for entry in entries]


def _cmd_verify_trace(args) -> int:
    from repro.analysis.absint import VIOLATION_RULES, verify_trace

    if args.list_rules:
        for rule, doc in VIOLATION_RULES.items():
            print(f"{rule:26s} {doc}")
        return 0
    try:
        if args.paths:
            traces = []
            for raw in args.paths:
                traces.extend(_load_trace_file(Path(raw)))
        else:
            from repro.workloads import workload_traces

            traces = workload_traces(
                schemes=tuple(args.schemes), word_bits=args.word
            )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = []
    for trace in traces:
        result = verify_trace(trace)
        violations.extend(result.findings)
        status = "FAIL" if result.findings else "ok"
        print(
            f"[verify-trace] {status:4s} {trace.name}: "
            f"{len(result.findings)} violation(s), "
            f"{result.bootstraps} bootstrap(s), "
            f"noise margin {result.min_noise_margin_bits:.1f} bits",
            file=sys.stderr,
        )
    _emit_report(args, violations, VIOLATION_RULES)
    print(
        f"[verify-trace] {len(traces)} trace(s), "
        f"{len(violations)} violation(s)",
        file=sys.stderr,
    )
    return 1 if violations else 0


def _cmd_compile_trace(args) -> int:
    import json

    from repro.trace.compiler import (
        compile_trace,
        compile_workloads,
        render_report,
    )

    try:
        if args.paths:
            results = [
                compile_trace(trace, scheme=scheme, word_bits=args.word)
                for raw in args.paths
                for trace in _load_trace_file(Path(raw))
                for scheme in args.schemes
            ]
        else:
            results = compile_workloads(args.schemes, args.word, plan=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    levels_saved = sum(c.levels_saved for c in results)
    q_saved = sum(c.log2_q_saved for c in results)
    if args.format == "json":
        doc = {
            "workloads": [
                {
                    "name": c.trace.name,
                    "scheme": c.scheme,
                    "word_bits": c.word_bits,
                    "levels_before": c.levels_before,
                    "levels_after": c.levels_after,
                    "levels_saved": c.levels_saved,
                    "log2_q_before": c.log2_q_before,
                    "log2_q_after": c.log2_q_after,
                    "log2_q_saved": c.log2_q_saved,
                    "noise_margin_before": c.noise_margin_before,
                    "noise_margin_after": c.noise_margin_after,
                    "passes": [p.to_dict() for p in c.passes],
                    "source_digest": c.source_digest,
                    "digest": c.digest,
                    "planned": c.chain is not None,
                }
                for c in results
            ],
            "totals": {
                "workloads": len(results),
                "levels_saved": levels_saved,
                "log2_q_saved": q_saved,
            },
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = render_report(results) + "\n"
    if args.output:
        out = Path(args.output)
        write_text_atomic(out, text)
        print(f"wrote report [{args.format}] -> {out}", file=sys.stderr)
    else:
        print(text, end="")
    print(
        f"[compile-trace] {len(results)} workload(s): {levels_saved} "
        f"level(s) and {q_saved:.1f} log2(Q) bits saved, all re-certified",
        file=sys.stderr,
    )
    if args.require_savings and levels_saved <= 0 and q_saved <= 0.0:
        print("[compile-trace] no savings found", file=sys.stderr)
        return 1
    return 0


_COMMANDS: dict[str, Callable] = {
    "plan": _cmd_plan,
    "figure": _cmd_figure,
    "obs-report": _cmd_obs_report,
    "list-figures": _cmd_list_figures,
    "lint": _cmd_lint,
    "verify-trace": _cmd_verify_trace,
    "compile-trace": _cmd_compile_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
