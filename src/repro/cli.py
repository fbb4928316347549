"""Command-line interface: plan chains and regenerate paper experiments.

Usage (``python -m repro ...``)::

    python -m repro plan --scheme bitpacker --n 1024 --word 28 \\
        --scale 40 --levels 6
    python -m repro compare --word 28
    python -m repro figure fig11 fig15
    python -m repro figure fig14 --cache-dir /tmp/bp-cache --force
    python -m repro figure fig14 fig18 --keep-going
    python -m repro figure fig14 --profile
    python -m repro profile fig14
    python -m repro obs-report results/fig14_word_size_sweep.profile.json
    python -m repro obs-report old.profile.json new.profile.json
    python -m repro obs-report --chrome-out trace.json fig14.profile.json
    python -m repro list-figures
    python -m repro lint --traces
    python -m repro lint --format sarif --output fhelint.sarif
    python -m repro verify-trace --waste
    python -m repro verify-trace my_schedule.json --format json
    python -m repro compile-trace --format json --output savings.json
    python -m repro figure fig11 --compiled
    python -m repro serve --tenants 8 --requests 400 --json serve.json

``figure`` treats sweeps as restartable batch jobs: Ctrl-C exits 130
with completed figures flushed to ``results/``, and running the same
command again resumes from the disk cache (DESIGN.md Sec. 8).  With
``--profile`` (or the ``profile`` alias) each figure also writes
``results/<stem>.profile.json`` — span tree, counters, and the
per-kernel cycle/energy attribution — and prints a rendered summary;
``obs-report`` renders, diffs, or converts those documents (DESIGN.md
Sec. 9).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Sequence

from repro.schemes import plan_chain

#: Figure/table name -> (module path, results/ file stem, runtime note).
#: Notes are measured cold runs with the cache off on a 2-core machine
#: (all 14 together: about 28 s; warm from the disk cache: under a
#: second).
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
              "~11 s, real encrypted arithmetic"),
    "fig19": ("repro.eval.fig19", "fig19_adjust_precision",
              "~6 s, real encrypted arithmetic"),
    "table1": ("repro.eval.table1", "table1_mantissa_bits",
               "~5 s, real encrypted arithmetic"),
    "sec61": ("repro.eval.security", "sec61_security_params", "~1 s"),
    "sec62": ("repro.eval.sharp", "sec62_sharp_comparison", "~1 s"),
    "sec63": ("repro.eval.area_reduction", "sec63_area_reduction", "~1 s"),
}


def _add_figure_options(parser: argparse.ArgumentParser) -> None:
    """The options ``figure`` and ``profile`` share."""
    parser.add_argument(
        "names", nargs="+", metavar="NAME",
        help="figures/tables to regenerate (see `repro list-figures`)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result cache location (default: ~/.cache/bitpacker-repro "
             "or $BITPACKER_CACHE_DIR)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="recompute every point, overwriting cached records",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache entirely",
    )
    parser.add_argument(
        "--results-dir", default="results", metavar="DIR",
        help="where to write <figure>.txt outputs (default: results/)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="after one figure fails, still run the remaining ones "
             "(exit non-zero at the end)",
    )
    parser.add_argument(
        "--compiled", action="store_true",
        help="run the harness on trace-compiler output (optimized "
             "schedules) instead of the recorded schedules",
    )


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

    compare = sub.add_parser(
        "compare", help="BitPacker vs RNS-CKKS on the paper's workloads"
    )
    compare.add_argument("--word", type=int, default=28)

    figure = sub.add_parser("figure", help="regenerate paper figures/tables")
    _add_figure_options(figure)
    figure.add_argument(
        "--profile", action="store_true",
        help="record a profile per figure (span tree, counters, kernel "
             "accounting) to results/<figure>.profile.json",
    )

    profile = sub.add_parser(
        "profile",
        help="regenerate figures with profiling on (figure --profile)",
    )
    _add_figure_options(profile)

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

    lint = sub.add_parser(
        "lint", help="run the fhelint static passes (and trace checks)"
    )
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
        "--traces", action="store_true",
        help="also lint the bundled workload traces for FHE-schedule bugs",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rule ids and exit",
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
        help="hardware word size for the bundled workloads and the "
             "slack-bits diagnostic (default: 28)",
    )
    verify.add_argument(
        "--waste", action="store_true",
        help="also report waste diagnostics (elidable rescales/adjusts, "
             "slack bits) — never affects the exit code",
    )
    verify.add_argument(
        "--suppress", nargs="+", default=(), metavar="RULE",
        help="drop findings with these rule ids",
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
        "--no-plan", action="store_true",
        help="skip re-planning the modulus chain (report-only compile)",
    )
    compile_.add_argument(
        "--require-savings", action="store_true",
        help="exit non-zero unless the batch saves at least one level "
             "or one log2(Q) bit in aggregate (the CI gate)",
    )
    compile_.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="format", metavar="FMT",
        help="report format: text (default) or json",
    )
    compile_.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )

    serve = sub.add_parser(
        "serve",
        help="boot the async multi-tenant service and drive seeded load "
             "(all arguments forwarded to bitpacker-serve)",
        add_help=False,
    )
    serve.add_argument("serve_args", nargs=argparse.REMAINDER, metavar="ARGS")
    return parser


def _add_format_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="format", metavar="FMT",
        help="report format: text (default), json, or sarif",
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


def _cmd_compare(args) -> int:
    from repro.eval import fig11

    rows = fig11.run(word_bits=args.word)
    print(fig11.render(rows))
    return 0


def _write_text_atomic(path: Path, text: str) -> None:
    """Publish a ``results/`` file atomically (temp + ``os.replace``).

    A crash or Ctrl-C mid-write must never leave a torn or partial
    output: readers see the previous content or the new one, nothing in
    between.  The temp file is removed on any failure, including the
    injected result-site faults the regression tests fire in the window
    between write and rename.
    """
    from repro.eval import faults

    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        faults.fire_result()
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # fhelint: ok[exception-swallow] best-effort tmp cleanup
            pass
        raise


def _cache_snapshot(cache) -> tuple[dict, dict, int]:
    return dict(cache.hits), dict(cache.misses), cache.corrupt_count


def _cache_delta(before: tuple[dict, dict, int], cache) -> dict:
    """Per-figure cache activity: counter growth since the snapshot."""
    hits0, misses0, corrupt0 = before
    return {
        "hits": {
            kind: n - hits0.get(kind, 0)
            for kind, n in cache.hits.items()
            if n - hits0.get(kind, 0)
        },
        "misses": {
            kind: n - misses0.get(kind, 0)
            for kind, n in cache.misses.items()
            if n - misses0.get(kind, 0)
        },
        "corrupt": cache.corrupt_count - corrupt0,
    }


def _write_figure_profile(
    name: str, stem: str, results_dir: Path, cache_before
) -> tuple[Path, dict] | None:
    """Assemble and atomically publish one figure's profile document."""
    from repro import obs
    from repro.eval import common, runner

    roots = obs.take_roots()
    if not roots:
        return None
    doc = obs.build_profile(
        name,
        roots[-1],
        obs.epoch(),
        obs.counters(),
        cache=_cache_delta(cache_before, runner.active_cache()),
        memory_caches=common.memory_cache_stats(),
    )
    path = obs.write_profile(results_dir / f"{stem}.profile.json", doc)
    return path, doc


def _cmd_figure(args) -> int:
    import importlib
    import inspect
    import time
    import traceback

    from repro.eval import common, runner

    unknown = [name for name in args.names if name not in FIGURES]
    if unknown:
        print(
            f"error: unknown figure(s): {', '.join(unknown)} "
            f"(choose from: {', '.join(sorted(FIGURES))})",
            file=sys.stderr,
        )
        return 2
    profiling = getattr(args, "profile", False)
    if profiling:
        from repro import obs

        obs.enable()
    runner.configure(
        cache_dir=args.cache_dir,
        enabled=False if args.no_cache else None,
        force=args.force,
    )
    if args.force:
        # One process must not keep serving pre-force artifacts it still
        # holds in memory: --force invalidates both cache layers.
        common.clear_memory_caches()
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    interrupted = False
    for name in args.names:
        module_path, stem, note = FIGURES[name]
        print(f"[{name}] running ({note})", file=sys.stderr)
        started = time.monotonic()
        if profiling:
            # Fresh recorder per figure; dropping the memory caches makes
            # every unique point pass through common.simulate's body so
            # the kernel-accounting counters see it (disk hits stay
            # cheap — one JSON read, no recompute).
            obs.reset()
            common.clear_memory_caches()
            cache_before = _cache_snapshot(runner.active_cache())
        try:
            module = importlib.import_module(module_path)
            kwargs = {}
            if getattr(args, "compiled", False):
                if "compiled" in inspect.signature(module.run).parameters:
                    kwargs["compiled"] = True
                else:
                    print(
                        f"[{name}] --compiled not supported by this "
                        "harness; running the recorded schedules",
                        file=sys.stderr,
                    )
            if profiling:
                with obs.span(f"figure/{name}"):
                    data = module.run(**kwargs)
            else:
                data = module.run(**kwargs)
            text = module.render(data)
            out_path = results_dir / f"{stem}.txt"
            _write_text_atomic(out_path, text + "\n")
            profile = (
                _write_figure_profile(name, stem, results_dir, cache_before)
                if profiling
                else None
            )
        except KeyboardInterrupt:
            # Everything computed so far is in the disk cache and every
            # finished figure is in results/.
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
    cache = runner.active_cache()
    corrupt = (
        f", {cache.corrupt_count} quarantined" if cache.corrupt_count else ""
    )
    print(
        f"[cache] {cache.hit_count()} hits, {cache.miss_count()} misses"
        f"{corrupt} ({cache.cache_dir if cache.enabled else 'disabled'})",
        file=sys.stderr,
    )
    if interrupted:
        print(
            "[figure] interrupted — completed figures are in "
            f"{results_dir}/, cached points will be reused on re-run",
            file=sys.stderr,
        )
        return 130
    if failed:
        print(f"[figure] failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    """``repro profile <figure>`` — ``figure --profile`` spelled out."""
    args.profile = True
    return _cmd_figure(args)


def _cmd_obs_report(args) -> int:
    import json

    from repro import obs
    from repro.errors import ParameterError

    try:
        if args.chrome_out:
            if len(args.profiles) != 1:
                print(
                    "error: --chrome-out takes exactly one profile file",
                    file=sys.stderr,
                )
                return 2
            doc = obs.load_profile(args.profiles[0])
            events = obs.chrome_trace(doc["span_tree"])
            out = Path(args.chrome_out)
            _write_text_atomic(out, json.dumps(events, indent=1) + "\n")
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
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        "error: obs-report takes one profile file (summary) or two (diff)",
        file=sys.stderr,
    )
    return 2


def _cmd_list_figures(_args) -> int:
    for name, (module_path, _stem, note) in sorted(FIGURES.items()):
        print(f"{name:8s} {module_path:28s} ({note})")
    return 0


def _emit_report(args, findings, rule_docs) -> None:
    """Render findings per ``--format`` to stdout or ``--output``."""
    from repro.analysis.report import render_findings

    text = render_findings(findings, args.format, rule_docs)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_text_atomic(out, text if text.endswith("\n") else text + "\n")
        print(
            f"wrote {len(findings)} finding(s) [{args.format}] -> {out}",
            file=sys.stderr,
        )
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_lint(args) -> int:
    from repro.analysis import all_passes, run_lint, verify_traces

    if args.list_rules:
        for lint_pass in all_passes():
            print(f"{lint_pass.rule:20s} {lint_pass.description}")
        return 0
    if args.paths:
        paths = args.paths
    else:
        import repro

        paths = [str(Path(repro.__file__).resolve().parent)]
    findings = run_lint(paths, rules=args.rules)
    rule_docs = {p.rule: p.description for p in all_passes()}
    if args.traces:
        from repro.analysis.absint import VIOLATION_RULES
        from repro.workloads import workload_traces

        findings = findings + verify_traces(workload_traces())[1]
        rule_docs.update(VIOLATION_RULES)
    _emit_report(args, findings, rule_docs)
    return 1 if findings else 0


def _load_trace_file(path: Path):
    """HeTrace objects from one JSON file (single object or list)."""
    import json

    from repro.trace.program import HeTrace

    data = json.loads(path.read_text())
    entries = data if isinstance(data, list) else [data]
    return [HeTrace.from_dict(entry) for entry in entries]


def _cmd_verify_trace(args) -> int:
    from repro.analysis.absint import (
        VIOLATION_RULES,
        WASTE_RULES,
        verify_trace,
    )
    from repro.errors import ReproError

    if args.list_rules:
        for rule, doc in {**VIOLATION_RULES, **WASTE_RULES}.items():
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
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = []
    reported = []
    for trace in traces:
        result = verify_trace(
            trace, word_bits=args.word, ignore=tuple(args.suppress)
        )
        violations.extend(result.findings)
        reported.extend(result.findings)
        if args.waste:
            reported.extend(result.waste)
        status = "FAIL" if result.findings else "ok"
        extras = f", {len(result.waste)} waste" if args.waste else ""
        print(
            f"[verify-trace] {status:4s} {trace.name}: "
            f"{len(result.findings)} violation(s){extras}, "
            f"{result.bootstraps} bootstrap(s), "
            f"noise margin {result.min_noise_margin_bits:.1f} bits",
            file=sys.stderr,
        )
    rule_docs = {**VIOLATION_RULES, **(WASTE_RULES if args.waste else {})}
    _emit_report(args, reported, rule_docs)
    print(
        f"[verify-trace] {len(traces)} trace(s), "
        f"{len(violations)} violation(s)",
        file=sys.stderr,
    )
    return 1 if violations else 0


def _cmd_compile_trace(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.trace.compiler import compile_trace, render_report

    plan = not args.no_plan
    try:
        compiled = []
        if args.paths:
            for raw in args.paths:
                for trace in _load_trace_file(Path(raw)):
                    for scheme in args.schemes:
                        compiled.append(
                            compile_trace(
                                trace, scheme=scheme,
                                word_bits=args.word, plan=plan,
                            )
                        )
        else:
            from repro.workloads import workload_traces

            for scheme in args.schemes:
                for trace in workload_traces(
                    schemes=(scheme,), word_bits=args.word
                ):
                    compiled.append(
                        compile_trace(
                            trace, scheme=scheme,
                            word_bits=args.word, plan=plan,
                        )
                    )
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    levels_saved = sum(c.levels_saved for c in compiled)
    q_saved = sum(c.log2_q_saved for c in compiled)
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
                    "ops_elided": c.ops_elided,
                    "passes": [p.to_dict() for p in c.passes],
                    "source_digest": c.source_digest,
                    "digest": c.digest,
                    "planned": c.chain is not None,
                }
                for c in compiled
            ],
            "totals": {
                "workloads": len(compiled),
                "levels_saved": levels_saved,
                "log2_q_saved": q_saved,
            },
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = render_report(compiled) + "\n"
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_text_atomic(out, text)
        print(f"wrote report [{args.format}] -> {out}", file=sys.stderr)
    else:
        print(text, end="")
    print(
        f"[compile-trace] {len(compiled)} workload(s): {levels_saved} "
        f"level(s) and {q_saved:.1f} log2(Q) bits saved, all re-certified",
        file=sys.stderr,
    )
    if args.require_savings and levels_saved <= 0 and q_saved <= 0.0:
        print("[compile-trace] no savings found", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.cli import main as serve_main

    return serve_main(args.serve_args)


_COMMANDS: dict[str, Callable] = {
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "profile": _cmd_profile,
    "obs-report": _cmd_obs_report,
    "list-figures": _cmd_list_figures,
    "lint": _cmd_lint,
    "verify-trace": _cmd_verify_trace,
    "compile-trace": _cmd_compile_trace,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse's REMAINDER chokes on forwarded flags (bpo-17050), so the
    # serve passthrough is dispatched before the parse.
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
