"""``bitpacker-serve``: boot the service and drive the seeded load.

The smoke-and-demo entry point (also reachable as ``bitpacker-repro
serve ...``): builds a :class:`~repro.serve.loadgen.LoadSpec` from the
flags, runs one full scenario in-process — boot, register tenants,
Zipf/bursty load, drain — audits every response byte-for-byte against
serial execution, prints the report, and exits non-zero if anything
was dropped, corrupted, or failed, or if the service's books do not
balance.  ``--json`` atomically writes the full machine-readable report
with a per-tenant breakdown.

Exit codes: 0 clean, 1 dropped/corrupted/failed responses or
unbalanced books, 2 bad flags/spec, 130 on SIGINT (after a graceful
drain — the service context manager finishes queued work on the way
out).  Quarantined requests do *not* fail the run: isolating a poison
request instead of 500ing its batch is the service working as
designed.

Examples::

    bitpacker-serve
    bitpacker-serve --tenants 12 --requests 800 --burst 16 --seed 7
    bitpacker-serve --high-water 8 --queue-depth 8   # force backpressure
    bitpacker-serve --profile --json results/serve_smoke.json
    bitpacker-serve --faults 'serve.kernel:raise@0;serve.request:poison@3'
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.serve.loadgen import LoadSpec, run_scenario
from repro.serve.resilience import BreakerPolicy, RetryPolicy
from repro.serve.service import DEFAULT_N, DEFAULT_WORD_BITS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitpacker-serve",
        description=(
            "async multi-tenant encrypted-compute service: boot, drive "
            "the seeded load generator, audit every response"
        ),
    )
    load = parser.add_argument_group("load")
    load.add_argument("--seed", type=int, default=0xB17,
                      help="load-generator seed (default: %(default)s)")
    load.add_argument("--tenants", type=int, default=6,
                      help="simulated tenants (default: %(default)s)")
    load.add_argument("--requests", type=int, default=200,
                      help="total requests (default: %(default)s)")
    load.add_argument("--zipf-s", type=float, default=1.2,
                      help="tenant popularity skew (default: %(default)s)")
    load.add_argument("--burst", type=int, default=8,
                      help="requests per arrival burst (default: %(default)s)")
    load.add_argument("--burst-gap", type=float, default=0.0, metavar="S",
                      help="mean seconds between bursts (default: flood)")
    load.add_argument("--n", type=int, default=DEFAULT_N,
                      help="service ring degree (default: %(default)s)")
    load.add_argument("--word", type=int, default=DEFAULT_WORD_BITS,
                      help="modulus word bits (default: %(default)s)")
    svc = parser.add_argument_group("service")
    svc.add_argument("--shards", type=int, default=2,
                     help="worker shards (default: %(default)s)")
    svc.add_argument("--queue-depth", type=int, default=64,
                     help="bounded queue size per shard (default: %(default)s)")
    svc.add_argument("--high-water", type=int, default=None,
                     help="admission rejects past this queue depth "
                          "(default: queue depth)")
    svc.add_argument("--max-batch", type=int, default=16,
                     help="max requests coalesced per kernel call "
                          "(default: %(default)s)")
    res = parser.add_argument_group("resilience")
    res.add_argument("--request-timeout", type=float, default=None,
                     metavar="S",
                     help="per-request deadline in seconds (default: none)")
    res.add_argument("--retries", type=int, default=None, metavar="N",
                     help="singleton dispatch retries before quarantine "
                          "(default: policy default)")
    res.add_argument("--retry-backoff", type=float, default=None, metavar="S",
                     help="retry backoff base seconds (deterministic "
                          "jitter; default: policy default)")
    res.add_argument("--breaker-threshold", type=int, default=None,
                     metavar="N",
                     help="consecutive dispatch failures that open a "
                          "shard's circuit breaker (default: policy default)")
    res.add_argument("--breaker-cooldown", type=float, default=None,
                     metavar="S",
                     help="seconds an open breaker waits before half-open "
                          "probing (default: policy default)")
    res.add_argument("--tenant-cap", type=int, default=None, metavar="N",
                     help="max inflight requests per tenant (fairness; "
                          "default: uncapped)")
    res.add_argument("--faults", default=None, metavar="SPEC",
                     help="install a fault plan for this run (same grammar "
                          "as $BITPACKER_FAULTS, e.g. "
                          "'serve.kernel:raise%%0.05;serve.request:poison@3')")
    out = parser.add_argument_group("output")
    out.add_argument("--no-verify", action="store_true",
                     help="skip the byte-for-byte response audit")
    out.add_argument("--profile", action="store_true",
                     help="record repro.obs counters into the report")
    out.add_argument("--json", default=None, metavar="PATH",
                     help="write the machine-readable report to PATH")
    out.add_argument("--quiet", action="store_true",
                     help="suppress the rendered report (exit code only)")
    return parser


def render_report(doc: dict) -> str:
    lines = [
        "bitpacker-serve load report",
        f"  seed {doc['seed']}  tenants {doc['tenants']}  "
        f"requests {doc['requests']}  burst {doc['burst']} "
        f"(gap {doc['burst_gap_s']:g}s)  zipf_s {doc['zipf_s']:g}",
        f"  submitted {doc['submitted']}  admitted {doc['admitted']}  "
        f"rejected {doc['rejected']}  shed {doc['shed']}  "
        f"completed {doc['completed']}  failed {doc['failed']}  "
        f"quarantined {doc['quarantined']}",
        f"  dropped {doc['dropped']}  corrupted {doc['corrupted']}",
        f"  wall {doc['wall_s']:.3f}s  "
        f"throughput {doc['throughput_rps']:.0f} req/s",
        f"  latency p50 {doc['p50_latency_ms']:.2f}ms  "
        f"p99 {doc['p99_latency_ms']:.2f}ms  "
        f"max {doc['max_latency_ms']:.2f}ms",
        f"  batches: mean size {doc['mean_batch_size']:.2f}, "
        f"max {doc['max_batch_size']}",
    ]
    service = doc.get("service", {})
    if service:
        lines.append(
            f"  keys: {service.get('keys_built', 0)} built, "
            f"{service.get('keys_reused', 0)} reused; "
            f"kernel batches {service.get('batches', 0)}"
        )
        if service.get("retried") or service.get("splits"):
            opens = sum(
                b.get("opens", 0) for b in service.get("breakers", [])
            )
            lines.append(
                f"  resilience: {service['retried']} re-dispatches, "
                f"{service['splits']} group splits, "
                f"{service.get('expired', 0)} expired, "
                f"breaker opens {opens}"
            )
    if doc["reject_codes"]:
        codes = ", ".join(
            f"{n}x {code}" for code, n in sorted(doc["reject_codes"].items())
        )
        lines.append(f"  rejections by code: {codes}")
    if doc.get("failure_codes"):
        codes = ", ".join(
            f"{n}x {code}" for code, n in sorted(doc["failure_codes"].items())
        )
        lines.append(f"  failures by code: {codes}")
    tenants = service.get("tenants", {})
    noisy = {
        name: t for name, t in tenants.items()
        if t.get("rejected") or t.get("shed") or t.get("failed")
        or t.get("quarantined")
    }
    if noisy:
        lines.append("  per-tenant (non-clean only):")
        for name, t in sorted(noisy.items()):
            lines.append(
                f"    {name}: submitted {t['submitted']}  "
                f"rejected {t['rejected']}  shed {t['shed']}  "
                f"failed {t['failed']}  quarantined {t['quarantined']}"
            )
    return "\n".join(lines)


def _resilience_kwargs(args) -> dict:
    """Service kwargs for the resilience flags (defaults stay policy)."""
    kwargs: dict = {}
    if args.request_timeout is not None:
        kwargs["request_timeout_s"] = args.request_timeout
    retry_overrides = {}
    if args.retries is not None:
        retry_overrides["retries"] = args.retries
    if args.retry_backoff is not None:
        retry_overrides["backoff"] = args.retry_backoff
    if retry_overrides:
        kwargs["retry"] = RetryPolicy(**retry_overrides)
    breaker_overrides = {}
    if args.breaker_threshold is not None:
        breaker_overrides["failure_threshold"] = args.breaker_threshold
    if args.breaker_cooldown is not None:
        breaker_overrides["cooldown_s"] = args.breaker_cooldown
    if breaker_overrides:
        kwargs["breaker"] = BreakerPolicy(**breaker_overrides)
    if args.tenant_cap is not None:
        kwargs["tenant_inflight_cap"] = args.tenant_cap
    return kwargs


def _run(args) -> int:
    spec = LoadSpec(
        seed=args.seed,
        tenants=args.tenants,
        requests=args.requests,
        zipf_s=args.zipf_s,
        burst=args.burst,
        burst_gap_s=args.burst_gap,
        deadline_s=args.request_timeout,
        n=args.n,
        word_bits=args.word,
    )
    profiling = args.profile
    if profiling:
        from repro import obs

        obs.enable()
        obs.reset()
    if args.faults:
        from repro.serve import faults

        fault_context = faults.injected(args.faults)
    else:
        fault_context = contextlib.nullcontext()
    try:
        with fault_context:
            report = asyncio.run(run_scenario(
                spec,
                verify=not args.no_verify,
                shards=args.shards,
                queue_depth=args.queue_depth,
                high_water=args.high_water,
                max_batch=args.max_batch,
                **_resilience_kwargs(args),
            ))
    finally:
        if profiling:
            from repro import obs

            obs.disable()
    doc = report.to_dict()
    if profiling:
        from repro import obs

        doc["obs"] = {"counters": obs.counters()}
        obs.reset()
    if args.json:
        from repro.cli import write_text_atomic

        out = Path(args.json)
        write_text_atomic(out, json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"[serve] report -> {out}", file=sys.stderr)
    if not args.quiet:
        print(render_report(doc))
    problems = audit_report(report)
    if problems:
        print(f"[serve] FAILED: {'; '.join(problems)}", file=sys.stderr)
        return 1
    return 0


def audit_report(report) -> list[str]:
    """The exit-code audit: what, if anything, makes this run a failure.

    Quarantined requests are *not* failures — isolating a poison
    request instead of 500ing its batch peers is the designed outcome —
    but dropped/corrupted/failed responses and unbalanced extended
    books are.
    """
    problems = []
    if report.dropped:
        problems.append(f"{report.dropped} dropped response(s)")
    if report.corrupted:
        problems.append(f"{report.corrupted} corrupted response(s)")
    if report.failed:
        problems.append(f"{report.failed} failed request(s)")
    if report.submitted != (
        report.admitted + report.rejected + report.shed + report.dropped
    ):
        problems.append("request books do not balance")
    if report.admitted != (
        report.completed + report.failed + report.quarantined
    ):
        problems.append("settlement books do not balance")
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except KeyboardInterrupt:
        # The service context manager drained on the way out; 130 is
        # the conventional SIGINT exit status.
        print("[serve] interrupted — drained and stopped", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
