"""``serve_hot`` and ``serve_mixed``: closed-loop traffic at ``BitPackerServe``.

Sixteen client coroutines share the service's own event loop; each
submits its next request when the previous one returns.  Closed, not
open, because an open loop at a quarter of capacity collapsed into a
growing backlog in one of four sizing runs (README "Deviations"); the
traced run still takes one open-loop step as a diagnostic.

The two workloads differ only in traffic: ``serve_hot`` draws from one
tenant's two top-level ``(level, op)`` keys, so requests coalesce;
``serve_mixed`` spreads six Zipf-weighted tenants over every level, so
they almost never do.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from benchmarks.ladder import rungs, tracing
from benchmarks.ladder.harness import (
    RUNG_CALLS,
    WorkloadResult,
    clear_repro_caches,
    median,
    peak_rss_mb,
    percentile,
)
from benchmarks.ladder.probe import SpeedProbe
from repro import obs
from repro.errors import InvariantViolation
from repro.eval import runner
from repro.serve import BitPackerServe, TenantSession, batch, loadgen

SERVE_N = 8192
SERVICE = dict(shards=2, queue_depth=512, max_batch=16)
CLIENTS = 16
WINDOW_S = 2.0
#: Clients run this long before a measured phase starts counting.
RAMP_S = 0.25
#: Set-up ends once this many requests have completed (a count, not a
#: duration, so a slower service shows a longer set-up).
WARMUP_REQUESTS = 512
SETUP_REPEATS = 3
SCHEDULE_LEN = 4096
#: Every 16th ok response is kept (the newest 32 of them) and compared
#: byte for byte with ``execute_serial`` after the timed windows.
VERIFY_EVERY = 16
VERIFY_KEEP = 32
ZIPF_S = 1.2
OPEN_RATE_RPS = 150.0
OPEN_SECONDS = 5.0
HEARTBEAT_S = 0.01


@dataclass(frozen=True)
class Traffic:
    tenants: int
    pool_pairs: int
    hot: bool


TRAFFIC = {
    "serve_hot": Traffic(tenants=1, pool_pairs=8, hot=True),
    "serve_mixed": Traffic(tenants=6, pool_pairs=32, hot=False),
}


@dataclass(frozen=True)
class Entry:
    """One pre-generated request: who, which op, which operand pair."""

    session: TenantSession
    op_index: int
    level: int
    pair: int


def _register(service: BitPackerServe, traffic: Traffic) -> list[TenantSession]:
    spec = loadgen.LoadSpec(tenants=traffic.tenants, n=SERVE_N)
    loadgen.register_tenants(service, spec)
    return [
        service.sessions[loadgen.tenant_name(rank)]
        for rank in range(traffic.tenants)
    ]


def _schedule(sessions: list[TenantSession], traffic: Traffic,
              seed: int) -> list[Entry]:
    rng = random.Random(seed)
    if traffic.hot:
        # The tenant's two top-level batch keys: one op index per kernel.
        session = sessions[0]
        top = max(session.op_for(i).level for i in session.executable)
        by_op: dict[str, int] = {}
        for index in session.executable:
            op = session.op_for(index)
            if op.level == top:
                by_op.setdefault(batch.EXECUTABLE_KINDS[op.kind], index)
        choices = [(session, index) for index in by_op.values()]
        weights = None
    else:
        choices = None
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(sessions))]
    entries = []
    for _ in range(SCHEDULE_LEN):
        if choices is not None:
            session, index = rng.choice(choices)
        else:
            session = rng.choices(sessions, weights=weights)[0]
            index = rng.choice(session.executable)
        entries.append(Entry(
            session, index, session.op_for(index).level,
            rng.randrange(traffic.pool_pairs),
        ))
    return entries


def _operand_pool(sessions: list[TenantSession], pairs: int, seed: int):
    """``pairs`` full-height ``(a, b)`` residue stacks.

    Every serve key takes the first ``levels + 1`` NTT-friendly primes
    below the word size, so one stack reduced row-wise against the
    longest key serves any request as the row prefix ``a[:level + 1]``.
    """
    longest = max((s.key for s in sessions), key=lambda k: len(k.primes))
    for session in sessions:
        if session.key.primes != longest.primes[: len(session.key.primes)]:
            raise RuntimeError("serve keys no longer share a prime prefix")
    rng = np.random.default_rng([seed, 4])

    def stack() -> np.ndarray:
        return np.stack([
            rng.integers(0, q, SERVE_N, dtype=np.uint64) for q in longest.primes
        ])

    return [(stack(), stack()) for _ in range(pairs)]


class Driver:
    """One service, its traffic, and the closed-loop clients."""

    def __init__(self, service: BitPackerServe, entries: list[Entry], pool,
                 probe: SpeedProbe):
        self.service = service
        self.probe = probe
        self.entries = entries
        self.pool = pool
        self.stopping = False
        self.next_id = 0
        self.completed = 0
        self.attempted = 0
        self.not_ok = 0
        #: (done_time, latency_s, residency_s) of every ok response.
        self.records: list[tuple[float, float, float]] = []
        self.kept: deque = deque(maxlen=VERIFY_KEEP)

    def operands(self, entry: Entry):
        a, b = self.pool[entry.pair]
        return a[: entry.level + 1], b[: entry.level + 1]

    async def submit(self, entry: Entry, client: int):
        request_id = self.next_id
        self.next_id += 1
        a, b = self.operands(entry)
        with obs.span("serve/request", req=request_id, client=client,
                      tenant=entry.session.tenant):
            response = await self.service.submit(
                entry.session.tenant, entry.op_index, a, b)
        return response

    async def _client(self, client: int) -> None:
        cursor = client
        while not self.stopping:
            entry = self.entries[cursor % len(self.entries)]
            cursor += CLIENTS
            t0 = time.perf_counter()
            response = await self.submit(entry, client)
            done = time.perf_counter()
            self.attempted += 1
            expected_shape = (entry.level + 1, SERVE_N)
            if not response.ok or response.result.shape != expected_shape:
                self.not_ok += 1
                continue
            self.completed += 1
            self.records.append((done, done - t0, response.latency_s))
            if self.completed % VERIFY_EVERY == 0:
                # A copy: the result is a view into its whole batch's
                # output, and keeping the view would pin all of it.
                self.kept.append((entry, response.result.copy()))

    async def drive(self, until) -> int:
        """Run the clients until ``until()`` is true; returns dropped count."""
        self.stopping = False
        clients = [asyncio.create_task(self._client(c)) for c in range(CLIENTS)]
        while not until():
            await asyncio.sleep(0.02)
        self.stopping = True
        outcomes = await asyncio.gather(*clients, return_exceptions=True)
        return sum(isinstance(o, BaseException) for o in outcomes)

    async def windows(self, count: int, window_s: float):
        """``count`` measured windows; per-window ok records, and drops.

        Each window is its own drive — a speed-probe sample (with no
        request in flight), a ramp, then the window — so the probe
        brackets every one of them.
        """
        out: list[list[tuple[float, float, float]]] = []
        dropped = 0
        for _ in range(count):
            self.probe.sample()
            first = len(self.records)
            t0 = time.perf_counter() + RAMP_S
            end = t0 + window_s
            dropped += await self.drive(lambda: time.perf_counter() >= end)
            out.append([r for r in self.records[first:] if t0 <= r[0] < end])
        return out, dropped

    def mismatches(self) -> int:
        """Kept responses that differ from the serial reference."""
        wrong = 0
        for entry, got in self.kept:
            a, b = self.operands(entry)
            op = entry.session.op_for(entry.op_index)
            want = batch.execute_serial(batch.OpRequest(
                tenant=entry.session.tenant, key=entry.session.key,
                op=batch.EXECUTABLE_KINDS[op.kind], level=entry.level, a=a, b=b,
            ))
            wrong += not np.array_equal(got, want)
        return wrong


def _window_metrics(windows, window_s: float) -> dict[str, float]:
    """Median over windows of each window's own statistic."""

    def over_windows(stat) -> float:
        return median([stat(w) for w in windows])

    return {
        "throughput_rps": over_windows(lambda w: len(w) / window_s),
        # One client's closed-loop cycle is one round trip (no think
        # time): the window's mean, where p50_ms is its median.
        "iter_p50_s": over_windows(
            lambda w: sum(r[1] for r in w) / len(w)),
        "p50_ms": over_windows(
            lambda w: percentile([r[1] for r in w], 50) * 1e3),
        "p90_ms": over_windows(
            lambda w: percentile([r[1] for r in w], 90) * 1e3),
    }


async def _set_up(traffic: Traffic, seed: int, warmup: int, probe: SpeedProbe):
    """Start, register, warm up.  Returns the driver and what it cost."""
    probe.sample()
    t0 = time.perf_counter()
    service = BitPackerServe(**SERVICE)
    await service.start()
    sessions = _register(service, traffic)
    register_s = time.perf_counter() - t0
    # Input generation is the benchmark's cost, not the service's.
    driver = Driver(
        service, _schedule(sessions, traffic, seed),
        _operand_pool(sessions, traffic.pool_pairs, seed), probe,
    )
    t1 = time.perf_counter()
    await driver.drive(lambda: driver.completed >= warmup)
    warmup_s = time.perf_counter() - t1
    return driver, register_s, register_s + warmup_s


async def _run(name: str, seed: int, seconds: float, traced: bool,
               smoke: bool) -> WorkloadResult:
    result = WorkloadResult(workload=name)
    traffic = TRAFFIC[name]
    runner.configure(enabled=False)  # nothing written outside the checkout
    window_s = 1.0 if smoke else WINDOW_S
    warmup = 64 if smoke else WARMUP_REQUESTS
    probe = SpeedProbe()
    setup_s, register_s = [], []
    repeats = 1 if smoke else SETUP_REPEATS
    for repeat in range(repeats):
        clear_repro_caches()
        driver, registered, total = await _set_up(traffic, seed, warmup, probe)
        register_s.append(registered)
        setup_s.append(total)
        if repeat + 1 < repeats:
            await driver.service.stop()
            del driver  # or two operand pools would be alive at once
    service = driver.service

    total_windows = 1 if smoke else max(2, round(seconds / window_s))
    untraced_count = max(1, total_windows // 2) if traced else total_windows
    driver.attempted = driver.not_ok = 0
    windows, dropped = await driver.windows(untraced_count, window_s)
    result.end_to_end = {
        "setup_s": median(setup_s),
        **_window_metrics(windows, window_s),
    }
    result.samples = {
        "setup_s": len(setup_s),
        "throughput_rps": len(windows),
        "p50_ms": min(len(w) for w in windows),
        "p90_ms": min(len(w) for w in windows),
    }
    result.notes["latency_p99_ms"] = median(
        [percentile([r[1] for r in w], 99) * 1e3 for w in windows])

    if traced:
        dropped += await _traced_part(
            driver, max(1, total_windows - untraced_count), window_s,
            result.end_to_end["throughput_rps"], median(register_s), smoke,
            result,
        )

    wrong = driver.mismatches()
    result.attempted += driver.attempted
    result.failed += driver.not_ok + dropped
    result.check(f"kept responses byte-equal to execute_serial "
                 f"({len(driver.kept)} checked)", wrong == 0, f"{wrong} differ")
    result.check("zero dropped responses", dropped == 0, f"{dropped} dropped")
    try:
        service.check_books()
        result.check("service books balance", True)
    except InvariantViolation as exc:  # the verdict: reported, not raised
        result.check("service books balance", False, str(exc))
    await service.stop()
    probe.sample()
    result.machine_speed = probe.speed
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return result


async def _heartbeat(lags: list[float], stop: asyncio.Event) -> None:
    """How late the loop wakes a sleeper: the kernel calls block it."""
    while not stop.is_set():
        t0 = time.perf_counter()
        await asyncio.sleep(HEARTBEAT_S)
        lags.append(time.perf_counter() - t0 - HEARTBEAT_S)


async def _open_loop(driver: Driver, seconds: float) -> dict[str, float]:
    """One open-loop step, every request timed from its due instant."""
    count = int(OPEN_RATE_RPS * seconds)
    start = time.perf_counter() + 0.05
    latencies: list[float] = []
    late: list[float] = []
    depth: list[int] = []
    outstanding = 0

    async def fire(index: int, due: float) -> None:
        nonlocal outstanding
        late.append(time.perf_counter() - due)
        outstanding += 1
        entry = driver.entries[index % len(driver.entries)]
        response = await driver.submit(entry, client=-1)
        outstanding -= 1
        driver.attempted += 1
        if response.ok:
            latencies.append(time.perf_counter() - due)
        else:
            driver.not_ok += 1

    tasks = []
    for index in range(count):
        due = start + index / OPEN_RATE_RPS
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        depth.append(outstanding)
        tasks.append(asyncio.create_task(fire(index, due)))
    await asyncio.gather(*tasks)
    quarter = max(1, count // 4)
    early = sum(depth[:quarter]) / quarter
    final = sum(depth[-quarter:]) / quarter
    return {
        "serve.open.p50_ms": percentile(latencies, 50) * 1e3,
        "serve.open.p99_ms": percentile(latencies, 99) * 1e3,
        "serve.open.late_p99_ms": percentile(late, 99) * 1e3,
        # Grew: the last quarter holds over twice the first's backlog
        # (and more than a handful of requests).
        "serve.open.backlog_grew": float(final > 2 * early + 4),
    }


async def _traced_part(driver: Driver, count: int, window_s: float,
                       untraced_rps: float, register_s: float, smoke: bool,
                       result: WorkloadResult) -> int:
    service = driver.service
    before = service.stats()
    lags: list[float] = []
    stop = asyncio.Event()
    with tracing.recording():
        # Clients are spawned inside the span so their request spans
        # parent to it; the service's own workers predate it, so their
        # ``serve/batch`` spans come out as separate roots.
        with obs.span(f"workload/{result.workload}"):
            heartbeat = asyncio.create_task(_heartbeat(lags, stop))
            windows, dropped = await driver.windows(count, window_s)
            stop.set()
            await heartbeat
            after = service.stats()
            with obs.span("open_loop", rate_rps=OPEN_RATE_RPS):
                open_metrics = await _open_loop(
                    driver, 1.0 if smoke else OPEN_SECONDS)
        trees = tracing.take_trees()
    for lane, tree in enumerate(trees, start=1):
        result.trace_events += obs.chrome_trace(tree, pid=lane)

    pl = result.per_layer
    pl.update(open_metrics)
    batches = after["batches"] - before["batches"]
    pl["serve.service.register_s"] = register_s
    pl["serve.service.batches"] = float(batches)
    pl["serve.batch.mean_batch_size"] = (
        (after["batched_requests"] - before["batched_requests"]) / batches)
    pl["serve.batch.max_batch_size"] = float(after["max_batch_seen"])
    for book in ("rejected", "shed", "failed", "retried"):
        pl[f"serve.service.{book}"] = float(after[book] - before[book])
    records = [r for w in windows for r in w]
    pl["serve.service.residency_p50_ms"] = percentile(
        [r[2] for r in records], 50) * 1e3
    pl["serve.service.latency_p99_ms"] = median(
        [percentile([r[1] for r in w], 99) * 1e3 for w in windows])
    pl["serve.loop.lag_p99_ms"] = percentile(lags, 99) * 1e3
    pl["obs.trace_overhead_ratio"] = (
        _window_metrics(windows, window_s)["throughput_rps"] / untraced_rps)
    result.samples["traced_windows"] = len(windows)

    # Rungs: the serve kernel on one top-level ``mul`` of the first tenant.
    entry = next(
        e for e in driver.entries
        if batch.EXECUTABLE_KINDS[e.session.op_for(e.op_index).kind] == "mul"
        and e.level == max(x.level for x in driver.entries)
    )
    rows = entry.level + 1
    a, b = driver.operands(entry)
    request = batch.OpRequest(
        tenant=entry.session.tenant, key=entry.session.key, op="mul",
        level=entry.level, a=a, b=b,
    )
    pool = [(pa[:rows], pb[:rows]) for pa, pb in driver.pool]
    pl.update(rungs.serve_rungs(request, pool, 2 if smoke else RUNG_CALLS))
    return dropped


def run(name: str, seed: int, seconds: float, traced: bool,
        smoke: bool) -> WorkloadResult:
    return asyncio.run(_run(name, seed, seconds, traced, smoke))
