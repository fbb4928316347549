"""Deterministic, seedable load generator for ``repro serve``.

Simulates the traffic shape a popular encrypted-compute endpoint sees,
scaled down to a test harness:

- **Zipf tenant mix** — tenant popularity follows ``1 / rank^s``; a few
  hot tenants dominate, a long tail trickles (so key/batch reuse is
  realistic, not uniform).
- **Bursty arrivals** — requests arrive in bursts of ``burst`` with
  seeded exponential gaps between bursts, not a smooth open loop; a
  burst is submitted concurrently, which is exactly what exercises the
  batcher and, at high offered load, the backpressure path.

Everything is derived from ``spec.seed``: the schedule
(:func:`build_schedule`), the per-request operands
(:func:`operands_for`), and therefore the expected results.  Two runs
of the same spec submit byte-identical traffic, so the report can
*prove* zero corruption: every ``ok`` response is compared
byte-for-byte against :func:`repro.serve.batch.execute_serial` on the
same operands.  :meth:`LoadReport.render` and :meth:`LoadReport.audit`
are the report ``repro serve`` prints and the audit behind its exit
code.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.serve import batch as _batch
from repro.serve.service import DEFAULT_N, DEFAULT_WORD_BITS, BitPackerServe

#: (app, bootstrap) pairs cycled across tenants; mixing schedules gives
#: the batcher mixed-level traffic it must keep separate.
DEFAULT_WORKLOADS = (
    ("LogReg", "BS19"),
    ("RNN", "BS19"),
    ("LogReg", "BS26"),
    ("SqueezeNet", "BS19"),
)


@dataclass(frozen=True)
class LoadSpec:
    """One reproducible load scenario.

    ``repro serve`` sets the seed, the counts, the burst gap and the
    deadline; the other fields keep these defaults there.
    """

    seed: int = 0xB17
    tenants: int = 6
    requests: int = 200
    zipf_s: float = 1.2
    burst: int = 8
    #: Mean seconds between bursts (0 = flood: every burst back-to-back).
    burst_gap_s: float = 0.0
    #: Per-request deadline passed to ``submit`` (``None`` = none).
    deadline_s: float | None = None
    n: int = DEFAULT_N
    word_bits: int = DEFAULT_WORD_BITS
    workloads: tuple[tuple[str, str], ...] = DEFAULT_WORKLOADS

    def __post_init__(self):
        if self.tenants < 1:
            raise ParameterError(f"tenants must be >= 1, got {self.tenants}")
        if self.requests < 1:
            raise ParameterError(f"requests must be >= 1, got {self.requests}")
        if self.burst < 1:
            raise ParameterError(f"burst must be >= 1, got {self.burst}")
        if self.zipf_s <= 0:
            raise ParameterError(f"zipf_s must be > 0, got {self.zipf_s}")


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: which tenant fires which op, when."""

    index: int
    burst: int
    gap_s: float  # pause before this arrival's burst (first in burst only)
    tenant: str
    op_index: int


def tenant_name(rank: int) -> str:
    return f"tenant-{rank:04d}"


def tenant_workload(spec: LoadSpec, rank: int) -> tuple[str, str]:
    return spec.workloads[rank % len(spec.workloads)]


def _zipf_weights(count: int, s: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(count)]
    total = sum(weights)
    return [w / total for w in weights]


def build_schedule(
    spec: LoadSpec, executable: dict[str, tuple[int, ...]]
) -> list[Arrival]:
    """The deterministic arrival schedule for ``spec``.

    ``executable`` maps tenant name -> the op indices its session may
    execute (from :attr:`TenantSession.executable`).  Same spec, same
    sessions => same schedule, element for element.
    """
    rng = random.Random(spec.seed)
    names = [tenant_name(rank) for rank in range(spec.tenants)]
    weights = _zipf_weights(spec.tenants, spec.zipf_s)
    arrivals: list[Arrival] = []
    for index in range(spec.requests):
        burst = index // spec.burst
        first_in_burst = index % spec.burst == 0
        gap = 0.0
        if first_in_burst and burst > 0 and spec.burst_gap_s > 0:
            gap = rng.expovariate(1.0 / spec.burst_gap_s)
        tenant = rng.choices(names, weights=weights)[0]
        ops = executable[tenant]
        arrivals.append(Arrival(
            index=index, burst=burst, gap_s=gap, tenant=tenant,
            op_index=ops[rng.randrange(len(ops))],
        ))
    return arrivals


def operands_for(
    spec: LoadSpec, arrival: Arrival, moduli: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded residue stacks for one arrival (row ``i`` < ``moduli[i]``)."""
    rng = np.random.default_rng((spec.seed << 20) ^ arrival.index)
    a = np.stack(
        [rng.integers(0, q, spec.n, dtype=np.uint64) for q in moduli]
    )
    b = np.stack(
        [rng.integers(0, q, spec.n, dtype=np.uint64) for q in moduli]
    )
    return a, b


@dataclass
class LoadReport:
    """What one load run did, with the corruption audit built in."""

    spec: LoadSpec
    wall_s: float = 0.0
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    corrupted: int = 0
    dropped: int = 0  # responses never received (must stay 0)
    latencies_s: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    reject_codes: dict[int, int] = field(default_factory=dict)
    failure_codes: dict[int, int] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentile(self, pct: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.array(self.latencies_s), pct))

    def to_dict(self) -> dict:
        return {
            "seed": self.spec.seed,
            "tenants": self.spec.tenants,
            "requests": self.spec.requests,
            "zipf_s": self.spec.zipf_s,
            "burst": self.spec.burst,
            "burst_gap_s": self.spec.burst_gap_s,
            "n": self.spec.n,
            "word_bits": self.spec.word_bits,
            "deadline_s": self.spec.deadline_s,
            "wall_s": self.wall_s,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "corrupted": self.corrupted,
            "dropped": self.dropped,
            "throughput_rps": self.throughput_rps,
            "p50_latency_ms": self.latency_percentile(50) * 1e3,
            "p99_latency_ms": self.latency_percentile(99) * 1e3,
            "max_latency_ms": (
                max(self.latencies_s) * 1e3 if self.latencies_s else 0.0
            ),
            "mean_batch_size": (
                sum(self.batch_sizes) / len(self.batch_sizes)
                if self.batch_sizes else 0.0
            ),
            "max_batch_size": max(self.batch_sizes, default=0),
            "reject_codes": {
                str(code): n for code, n in sorted(self.reject_codes.items())
            },
            "failure_codes": {
                str(code): n for code, n in sorted(self.failure_codes.items())
            },
            "service": self.stats,
        }

    def render(self) -> str:
        """The human-readable report ``repro serve`` prints."""
        doc = self.to_dict()
        lines = [
            "repro serve load report",
            f"  seed {doc['seed']}  tenants {doc['tenants']}  "
            f"requests {doc['requests']}  burst {doc['burst']} "
            f"(gap {doc['burst_gap_s']:g}s)  zipf_s {doc['zipf_s']:g}",
            f"  submitted {doc['submitted']}  admitted {doc['admitted']}  "
            f"rejected {doc['rejected']}  "
            f"completed {doc['completed']}  failed {doc['failed']}",
            f"  dropped {doc['dropped']}  corrupted {doc['corrupted']}",
            f"  wall {doc['wall_s']:.3f}s  "
            f"throughput {doc['throughput_rps']:.0f} req/s",
            f"  latency p50 {doc['p50_latency_ms']:.2f}ms  "
            f"p99 {doc['p99_latency_ms']:.2f}ms  "
            f"max {doc['max_latency_ms']:.2f}ms",
            f"  batches: mean size {doc['mean_batch_size']:.2f}, "
            f"max {doc['max_batch_size']}",
        ]
        service = doc["service"]
        if service:
            lines.append(
                f"  keys: {service.get('keys_built', 0)} built, "
                f"{service.get('keys_reused', 0)} reused; "
                f"kernel batches {service.get('batches', 0)}"
            )
        for label, codes in (("rejections", doc["reject_codes"]),
                             ("failures", doc["failure_codes"])):
            if codes:
                listed = ", ".join(f"{n}x {code}" for code, n in codes.items())
                lines.append(f"  {label} by code: {listed}")
        noisy = {
            name: t for name, t in service.get("tenants", {}).items()
            if t.get("rejected") or t.get("failed")
        }
        if noisy:
            lines.append("  per-tenant (non-clean only):")
            for name, t in sorted(noisy.items()):
                lines.append(
                    f"    {name}: submitted {t['submitted']}  "
                    f"rejected {t['rejected']}  failed {t['failed']}"
                )
        return "\n".join(lines)

    def audit(self) -> list[str]:
        """What, if anything, makes this run a failure (exit 1).

        Dropped, corrupted and failed responses are, and so are books
        that do not balance.
        """
        problems = []
        if self.dropped:
            problems.append(f"{self.dropped} dropped response(s)")
        if self.corrupted:
            problems.append(f"{self.corrupted} corrupted response(s)")
        if self.failed:
            problems.append(f"{self.failed} failed request(s)")
        if self.submitted != self.admitted + self.rejected + self.dropped:
            problems.append("request books do not balance")
        if self.admitted != self.completed + self.failed:
            problems.append("settlement books do not balance")
        return problems


def register_tenants(service: BitPackerServe, spec: LoadSpec) -> None:
    """Create one session per simulated tenant (idempotent-free: call once)."""
    for rank in range(spec.tenants):
        app, bs = tenant_workload(spec, rank)
        service.register(
            tenant_name(rank), app=app, bs=bs,
            n=spec.n, word_bits=spec.word_bits,
        )


async def run_load(service: BitPackerServe, spec: LoadSpec) -> LoadReport:
    """Drive ``spec``'s schedule at the service and audit every response.

    The service must be started and its tenants registered
    (:func:`register_tenants`).  Each ``ok`` response is recomputed
    serially from the seeded operands and compared byte-for-byte
    (``corrupted`` counts mismatches).
    """
    sessions = {name: service.sessions[name] for name in (
        tenant_name(rank) for rank in range(spec.tenants)
    )}
    executable = {name: s.executable for name, s in sessions.items()}
    schedule = build_schedule(spec, executable)
    report = LoadReport(spec=spec)

    async def fire(arrival: Arrival):
        session = sessions[arrival.tenant]
        trace_op = session.trace.ops[arrival.op_index]
        moduli = session.key.moduli_at(trace_op.level)
        a, b = operands_for(spec, arrival, moduli)
        response = await service.submit(
            arrival.tenant, arrival.op_index, a, b,
            deadline_s=spec.deadline_s,
        )
        return arrival, a, b, response

    started = time.perf_counter()
    pending: list[asyncio.Task] = []
    for arrival in schedule:
        if arrival.gap_s > 0:
            await asyncio.sleep(arrival.gap_s)
        pending.append(asyncio.create_task(fire(arrival)))
    outcomes = await asyncio.gather(*pending, return_exceptions=True)
    report.wall_s = time.perf_counter() - started

    for outcome in outcomes:
        report.submitted += 1
        if isinstance(outcome, BaseException):  # lost response
            report.dropped += 1
            continue
        arrival, a, b, response = outcome
        if response.status == "rejected":
            report.rejected += 1
            report.reject_codes[response.code] = (
                report.reject_codes.get(response.code, 0) + 1
            )
            continue
        report.admitted += 1
        if response.status == "error":
            report.failed += 1
            report.failure_codes[response.code] = (
                report.failure_codes.get(response.code, 0) + 1
            )
            continue
        report.completed += 1
        report.latencies_s.append(response.latency_s)
        report.batch_sizes.append(response.batch_size)
        session = sessions[arrival.tenant]
        trace_op = session.trace.ops[arrival.op_index]
        expected = _batch.execute_serial(_batch.OpRequest(
            tenant=arrival.tenant, key=session.key,
            op=_batch.EXECUTABLE_KINDS[trace_op.kind],
            level=trace_op.level, a=a, b=b,
        ))
        if (
            response.result is None
            or response.result.shape != expected.shape
            or not bool(np.array_equal(response.result, expected))
        ):
            report.corrupted += 1
    report.stats = service.stats()
    return report


async def run_scenario(spec: LoadSpec, **service_kwargs) -> LoadReport:
    """Boot a fresh service, register tenants, run the load, drain."""
    async with BitPackerServe(**service_kwargs) as service:
        register_tenants(service, spec)
        report = await run_load(service, spec)
        service.check_books()
    return report
