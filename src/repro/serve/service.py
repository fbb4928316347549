"""`bitpacker-serve`: the async multi-tenant encrypted-compute service.

Composes the repo's batch pieces into a long-running system (ROADMAP's
"single biggest step toward the north star"):

admission -> verify gate -> per-shard queue -> batcher -> kernel call
   |              |                |               |          |
 404/400/422   ScheduleViolation  429 past     coalesce     repro
 on bad input  at the front door  high water   compatible   .backends
               503 breaker shed   / fair cap   ops          + retries

- **Sessions** bind a tenant to a *verified* schedule and to shared
  :class:`~repro.serve.keys.KeyMaterial`.  Registration runs every
  trace through the PR-7 :func:`~repro.analysis.absint.verify_or_raise`
  gate (content-keyed, single-flight memo), so a malformed schedule is
  rejected before it can poison a batch.
- **Sharding** routes a session by its key fingerprint: one key's
  traffic serializes on one worker, which keeps its tables hot and
  makes per-tenant ordering trivial.
- **Backpressure**: shard queues are bounded; admission past the high
  water mark returns a 429-class rejection immediately instead of
  queuing unboundedly.  A per-shard circuit breaker
  (:mod:`repro.serve.resilience`) sheds load with 503-class responses
  while a shard's kernel keeps failing, and an optional per-tenant
  inflight cap keeps one noisy tenant from starving its shard.
- **Batching**: each worker drains whatever is queued (up to
  ``max_batch``), coalesces compatible ops
  (:mod:`repro.serve.batch`), and dispatches matrix-at-a-time through
  :mod:`repro.backends`.  Results are byte-identical to serial
  execution — batching is a latency/throughput decision, never a
  numerical one.
- **Resilience** (DESIGN.md Sec. 13): requests carry deadlines from
  ``submit()`` into every dispatch and retry decision; a failed group
  is *split-and-retried* (bisection isolates a poison request in
  O(log B) dispatches and quarantines it instead of 500ing its batch
  peers); singleton dispatches retry with deterministic-jitter
  backoff; ``stop(drain=True)`` finishes queued work under a drain
  deadline and resolves — never hangs — anything it cannot finish.
- **Observability**: one set of always-on books, global and per
  tenant (:meth:`BitPackerServe.stats`), that the smoke job asserts
  against; a :meth:`BitPackerServe.health` readiness view exposing
  breaker states and quarantine counts; and, when profiling is on, a
  ``serve/batch`` :mod:`repro.obs` span around every dispatch.

The service is single-event-loop: workers are asyncio tasks and the
kernel calls run inline (they are short at service ring degrees and
release little).  Injected faults (:mod:`repro.eval.faults` ``serve.*``
sites) are *decided* by the injector but *applied* here with
``await asyncio.sleep``, so a simulated straggler stalls one dispatch,
not the loop.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.absint import GATE, verify_or_raise
from repro.errors import InvariantViolation, ParameterError
from repro.eval import faults as _faults
from repro.obs import core as _obs
from repro.serve import batch as _batch
from repro.serve import resilience as _res
from repro.serve.keys import KeyMaterial, KeyParams, KeyRegistry
from repro.trace.program import HeTrace, content_digest

#: Default serve ring degree: big enough to exercise the batched
#: kernels, small enough that a load test runs in seconds.
DEFAULT_N = 64
DEFAULT_WORD_BITS = 28


def invalidate_admitted(digest: str) -> bool:
    """Drop one digest's memoized admission verdict (if present).

    Called on recompilation: the source trace's verdict must not stand
    in for the rewritten schedule, which re-verifies under its own
    digest.  Returns whether an entry was evicted.
    """
    return GATE.invalidate(digest)


def gate_memo_size() -> int:
    """Entries in the verified-schedule memo (exported via ``stats()``)."""
    return len(GATE)


@dataclass
class TenantSession:
    """One registered tenant: verified schedule + shared key material."""

    tenant: str
    trace: HeTrace
    key: KeyMaterial
    shard: int
    #: Trace op indices a request may execute (payload-bearing kinds).
    executable: tuple[int, ...]
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    #: Content digest of the pre-compilation trace when the session was
    #: registered with ``compiled=True`` (``None`` otherwise).
    compiled_from: str | None = None
    #: Chain levels the compiler removed for this session's schedule.
    levels_saved: int = 0
    completed: int = 0
    failed: int = 0
    quarantined: int = 0
    #: Admitted but not yet settled (the fairness-cap denominator).
    inflight: int = 0

    def op_for(self, op_index: int):
        return self.trace.ops[op_index]


@dataclass
class ServeResponse:
    """What a submitter gets back.  ``ok`` iff the op executed.

    ``status`` values: ``ok`` (200), ``rejected`` (400/404/422/429
    admission refusals), ``shed`` (503, circuit breaker open),
    ``quarantined`` (422, this request deterministically fails the
    kernel and was isolated by split-and-retry), ``error`` (500 kernel
    failure after retries, 504 deadline exceeded, 503 service stopped
    before execution).
    """

    status: str  # "ok" | "rejected" | "shed" | "quarantined" | "error"
    code: int  # HTTP-style: 200, 400, 404, 422, 429, 500, 503, 504
    tenant: str
    op_index: int | None = None
    result: np.ndarray | None = field(default=None, repr=False)
    batch_size: int = 0
    latency_s: float = 0.0
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class BitPackerServe:
    """The service.  Use as an async context manager::

        async with BitPackerServe(shards=2) as serve:
            serve.register("tenant-a", app="LogReg")
            response = await serve.submit("tenant-a", op_index, a, b)
    """

    def __init__(
        self,
        shards: int = 2,
        queue_depth: int = 64,
        high_water: int | None = None,
        max_batch: int = 16,
        registry: KeyRegistry | None = None,
        request_timeout_s: float | None = None,
        retry: _res.RetryPolicy | None = None,
        breaker: _res.BreakerPolicy | None = None,
        tenant_inflight_cap: int | None = None,
    ):
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if queue_depth < 1:
            raise ParameterError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ParameterError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        if tenant_inflight_cap is not None and tenant_inflight_cap < 1:
            raise ParameterError(
                f"tenant_inflight_cap must be >= 1, got {tenant_inflight_cap}"
            )
        self.shards = shards
        self.queue_depth = queue_depth
        #: Admission rejects once a shard queue holds this many waiting
        #: requests (<= queue_depth so enqueue never blocks the loop).
        self.high_water = queue_depth if high_water is None else high_water
        if not 1 <= self.high_water <= queue_depth:
            raise ParameterError(
                f"high_water must be in [1, queue_depth={queue_depth}], "
                f"got {self.high_water}"
            )
        self.max_batch = max_batch
        self.registry = registry if registry is not None else KeyRegistry()
        #: Default per-request deadline (seconds; ``None`` = none).
        self.request_timeout_s = request_timeout_s
        self.retry = retry if retry is not None else _res.RetryPolicy()
        self.breaker_policy = (
            breaker if breaker is not None else _res.BreakerPolicy()
        )
        self.tenant_inflight_cap = tenant_inflight_cap
        self.sessions: dict[str, TenantSession] = {}
        self._queues: list[asyncio.Queue] = []
        self._workers: list[asyncio.Task] = []
        self._breakers = [
            _res.CircuitBreaker(self.breaker_policy) for _ in range(shards)
        ]
        self._seq = 0
        self._running = False
        # The service's one set of books: always on, read by stats().
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.quarantined = 0
        #: Failure breakdown (both are subsets of ``failed``).
        self.expired = 0  # 504: deadline passed before/while executing
        self.cancelled = 0  # 503: service stopped before execution
        self.retried = 0  # re-dispatches (split halves + singleton retries)
        self.splits = 0  # failed groups bisected to isolate a poison
        self.batches = 0
        self.batched_requests = 0
        self.max_batch_seen = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            return
        self._queues = [
            asyncio.Queue(maxsize=self.queue_depth) for _ in range(self.shards)
        ]
        self._workers = [
            asyncio.create_task(self._worker(shard), name=f"serve-shard-{shard}")
            for shard in range(self.shards)
        ]
        self._running = True

    async def stop(
        self, drain: bool = True, drain_timeout_s: float | None = None
    ) -> bool:
        """Stop the service; returns ``True`` iff every queue drained.

        ``drain=True`` (the default) finishes all queued work first,
        bounded by ``drain_timeout_s`` (``None`` = wait forever).
        ``drain=False`` — or a drain deadline expiring — cancels the
        workers and *settles* everything still pending with 503-class
        ``error`` responses: a stopped service never leaves a submitter
        awaiting a future that will not resolve, and the books still
        balance (the cancellations count as ``failed``/``cancelled``).
        """
        if not self._running:
            return True
        self._running = False  # new submits now refuse; queued work settles
        drained = True
        if drain and self._queues:
            join = asyncio.gather(*(queue.join() for queue in self._queues))
            try:
                await asyncio.wait_for(join, drain_timeout_s)
            except asyncio.TimeoutError:
                drained = False
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        # Whatever is still queued was never dispatched: settle it.
        for queue in self._queues:
            while True:
                try:
                    request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._settle_cancelled(request)
                queue.task_done()
        self._workers = []
        self._queues = []
        return drained

    async def __aenter__(self) -> "BitPackerServe":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop(drain=True)
        return False

    # ------------------------------------------------------------------
    # Registration (the front door's verify gate)
    # ------------------------------------------------------------------
    def register(
        self,
        tenant: str,
        *,
        trace: HeTrace | None = None,
        app: str | None = None,
        bs: str = "BS19",
        scheme: str = "bitpacker",
        n: int = DEFAULT_N,
        word_bits: int = DEFAULT_WORD_BITS,
        ks_digits: int = 3,
        compiled: bool = False,
    ) -> TenantSession:
        """Create a session: verify the schedule, bind key material.

        ``trace`` may be given directly, or built from a bundled
        workload (``app``/``bs``/``scheme``).  Raises
        :class:`~repro.errors.ScheduleViolationError` when the schedule
        fails the static gate — the request never reaches a queue.

        ``compiled=True`` runs the schedule through
        :func:`repro.trace.compiler.compile_trace` first: the session
        serves the optimized trace (fewer levels, smaller keys), the
        source digest's memoized admission verdict is invalidated, and
        the compiled trace re-verifies under its own digest.
        """
        if tenant in self.sessions:
            raise ParameterError(f"tenant {tenant!r} is already registered")
        if trace is None:
            if app is None:
                raise ParameterError("register needs a trace or an app name")
            from repro.workloads.apps import BENCHMARKS
            from repro.workloads.bootstrap_model import SCHEDULES

            if app not in BENCHMARKS:
                raise ParameterError(
                    f"unknown app {app!r}; known: {', '.join(sorted(BENCHMARKS))}"
                )
            if bs not in SCHEDULES:
                raise ParameterError(
                    f"unknown bootstrap schedule {bs!r}; known: "
                    f"{', '.join(sorted(SCHEDULES))}"
                )
            trace = BENCHMARKS[app](
                SCHEDULES[bs], n=n, scheme=scheme, word_bits=word_bits,
                ks_digits=ks_digits,
            )
        compiled_from: str | None = None
        levels_saved = 0
        if compiled:
            from repro.trace.compiler import compile_trace

            compiled_from = content_digest(trace)
            result = compile_trace(
                trace, scheme=scheme, word_bits=word_bits,
                ks_digits=ks_digits, plan=False,
            )
            invalidate_admitted(compiled_from)
            trace = result.trace
            levels_saved = result.levels_saved
        GATE.admit(trace, verify_or_raise)
        key = self.registry.get(
            KeyParams(n=n, word_bits=word_bits, levels=trace.max_level)
        )
        executable = tuple(
            index for index, op in enumerate(trace.ops)
            if op.kind in _batch.EXECUTABLE_KINDS
        )
        session = TenantSession(
            tenant=tenant,
            trace=trace,
            key=key,
            shard=int(key.fingerprint, 16) % self.shards,
            executable=executable,
            compiled_from=compiled_from,
            levels_saved=levels_saved,
        )
        self.sessions[tenant] = session
        return session

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _reject(
        self, session: TenantSession | None, tenant: str, code: int,
        reason: str, op_index: int | None = None,
    ) -> ServeResponse:
        self.rejected += 1
        if session is not None:
            session.rejected += 1
        return ServeResponse(
            status="rejected", code=code, tenant=tenant,
            op_index=op_index, reason=reason,
        )

    def _shed(
        self, session: TenantSession, code: int, reason: str,
        op_index: int | None = None,
    ) -> ServeResponse:
        self.shed += 1
        session.shed += 1
        return ServeResponse(
            status="shed", code=code, tenant=session.tenant,
            op_index=op_index, reason=reason,
        )

    async def submit(
        self, tenant: str, op_index: int, a: np.ndarray, b: np.ndarray,
        *, deadline_s: float | None = None,
    ) -> ServeResponse:
        """Admit one ciphertext op and await its (possibly batched) result.

        Admission failures resolve immediately with ``rejected`` (or,
        breaker open, ``shed``) responses and HTTP-style codes;
        admitted requests resolve when their batch executes, retries
        exhaust, their deadline passes, or the service stops.
        ``deadline_s`` overrides the service's ``request_timeout_s``
        for this request (relative seconds from now).
        """
        if not self._running:
            raise ParameterError("service is not running (use `async with`)")
        self.submitted += 1
        session = self.sessions.get(tenant)
        if session is None:
            return self._reject(None, tenant, 404, "unknown tenant")
        session.submitted += 1
        if not 0 <= op_index < len(session.trace.ops):
            return self._reject(
                session, tenant, 400,
                f"op_index {op_index} outside trace "
                f"[0, {len(session.trace.ops)})", op_index,
            )
        trace_op = session.op_for(op_index)
        op = _batch.EXECUTABLE_KINDS.get(trace_op.kind)
        if op is None:
            return self._reject(
                session, tenant, 400,
                f"op kind {trace_op.kind.value!r} carries no request "
                "payload (schedule-only)", op_index,
            )
        request = _batch.OpRequest(
            tenant=tenant, key=session.key, op=op, level=trace_op.level,
            a=a, b=b, seq=self._seq,
        )
        try:
            _batch.validate_operands(request)
        except ParameterError as exc:
            return self._reject(session, tenant, 422, str(exc), op_index)
        breaker = self._breakers[session.shard]
        if not breaker.allow():
            return self._shed(
                session, 503,
                f"shard {session.shard} circuit breaker {breaker.state}",
                op_index,
            )
        if (
            self.tenant_inflight_cap is not None
            and session.inflight >= self.tenant_inflight_cap
        ):
            return self._reject(
                session, tenant, 429,
                f"tenant inflight cap reached "
                f"({session.inflight}/{self.tenant_inflight_cap})", op_index,
            )
        queue = self._queues[session.shard]
        if queue.qsize() >= self.high_water:
            return self._reject(
                session, tenant, 429,
                f"shard {session.shard} past high water "
                f"({self.high_water} queued)", op_index,
            )
        if deadline_s is None:
            deadline_s = self.request_timeout_s
        if deadline_s is not None:
            request.deadline = time.monotonic() + deadline_s
        request.poisoned = _faults.serve_request_poisoned()
        self._seq += 1
        self.admitted += 1
        session.admitted += 1
        session.inflight += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        request.context = (future, op_index, time.perf_counter())
        queue.put_nowait(request)
        return await future

    # ------------------------------------------------------------------
    # Shard workers
    # ------------------------------------------------------------------
    async def _worker(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            request = await queue.get()
            run = [request]
            while len(run) < self.max_batch:
                try:
                    run.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                stall = _faults.serve_queue_stall()
                if stall > 0:
                    await asyncio.sleep(stall)
                for group in _batch.coalesce(run):
                    await self._run_group(shard, group)
            except asyncio.CancelledError:
                # Stop mid-flight: settle what this worker was holding
                # so no submitter is left awaiting a dead future.
                for pending in run:
                    self._settle_cancelled(pending)
                raise
            finally:
                for _ in run:
                    queue.task_done()

    async def _dispatch(
        self, shard: int, group: list[_batch.OpRequest]
    ) -> list[np.ndarray]:
        """One kernel dispatch attempt for a coalesced group."""
        self.batches += 1
        self.batched_requests += len(group)
        self.max_batch_seen = max(self.max_batch_seen, len(group))
        fault = _faults.serve_kernel_fault()
        if fault is not None:
            mode, delay = fault
            if mode == "raise":
                raise _faults.FaultInjected(
                    f"injected serve.kernel raise (shard {shard})"
                )
            # hang / slow: a straggler dispatch, not a dead one.
            await asyncio.sleep(delay)
        poisoned = [r.seq for r in group if r.poisoned]
        if poisoned:
            raise _faults.PoisonedRequest(
                f"injected poison request(s) seq={poisoned} "
                f"(shard {shard})"
            )
        with _obs.span(
            "serve/batch", shard=shard, op=group[0].op,
            level=group[0].level, size=len(group),
        ):
            return _batch.execute_group(group)

    async def _run_group(
        self, shard: int, group: list[_batch.OpRequest], attempt: int = 1
    ) -> None:
        """Run one coalesced group with deadline/retry/split handling.

        ``attempt`` counts dispatches of *this exact group*: splitting
        a failed multi-request group hands each half a fresh budget
        (the bisection is bounded by ``log2(max_batch)`` on its own),
        while a failing singleton retries up to ``retry.retries`` times
        with deterministic-jitter backoff before being quarantined.
        """
        now = time.monotonic()
        live = []
        for request in group:
            if request.deadline is not None and now >= request.deadline:
                self._settle_expired(request, len(group))
            else:
                live.append(request)
        if not live:
            return
        breaker = self._breakers[shard]
        try:
            results = await self._dispatch(shard, live)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            breaker.record_failure()
            if len(live) > 1:
                # Split-and-retry: bisect to isolate the failing member
                # so its peers are not failed by association.
                self.splits += 1
                self.retried += 2
                mid = len(live) // 2
                await self._run_group(shard, live[:mid])
                await self._run_group(shard, live[mid:])
                return
            request = live[0]
            if attempt <= self.retry.retries:
                delay = self.retry.delay_for(request.seq, attempt)
                if _res.remaining(request.deadline) > delay:
                    if delay > 0:
                        await asyncio.sleep(delay)
                    self.retried += 1
                    await self._run_group(shard, [request], attempt + 1)
                    return
                # The retry would land past the deadline: expire now
                # instead of burning a sleep the submitter cannot use.
                self._settle_expired(request, 1)
                return
            self._settle_quarantined(request, exc, attempt)
            return
        breaker.record_success()
        for request, result in zip(live, results):
            self._settle_ok(request, result, len(live))

    # ------------------------------------------------------------------
    # Settlement (the single choke point for admitted-request books)
    # ------------------------------------------------------------------
    def _settle(
        self, request: _batch.OpRequest, status: str, code: int, *,
        result: np.ndarray | None = None, batch_size: int = 0,
        reason: str = "",
    ) -> bool:
        """Resolve an admitted request exactly once; returns ``False``
        if it was already settled (books untouched)."""
        future, op_index, t0 = request.context
        if future.done():
            return False
        latency = time.perf_counter() - t0
        session = self.sessions[request.tenant]
        session.inflight -= 1
        if status == "ok":
            self.completed += 1
            session.completed += 1
        elif status == "quarantined":
            self.quarantined += 1
            session.quarantined += 1
        else:
            self.failed += 1
            session.failed += 1
        future.set_result(ServeResponse(
            status=status, code=code, tenant=request.tenant,
            op_index=op_index, result=result, batch_size=batch_size,
            latency_s=latency, reason=reason,
        ))
        return True

    def _settle_ok(
        self, request: _batch.OpRequest, result: np.ndarray, batch_size: int
    ) -> None:
        self._settle(
            request, "ok", 200, result=result, batch_size=batch_size
        )

    def _settle_expired(
        self, request: _batch.OpRequest, batch_size: int
    ) -> None:
        if self._settle(
            request, "error", 504, batch_size=batch_size,
            reason="deadline exceeded before execution completed",
        ):
            self.expired += 1

    def _settle_cancelled(self, request: _batch.OpRequest) -> None:
        if self._settle(
            request, "error", 503,
            reason="service stopped before execution",
        ):
            self.cancelled += 1

    def _settle_quarantined(
        self, request: _batch.OpRequest, exc: Exception, attempts: int
    ) -> None:
        self._settle(
            request, "quarantined", 422, batch_size=1,
            reason=(
                f"request deterministically fails the kernel "
                f"({attempts} attempt(s)): {type(exc).__name__}: {exc}"
            ),
        )

    # ------------------------------------------------------------------
    # Books
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The service's always-on accounting, consistency-checkable:
        ``submitted == admitted + rejected + shed`` always, and after a
        drain ``admitted == completed + failed + quarantined``."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "retried": self.retried,
            "splits": self.splits,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch_size": (
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            "keys_built": self.registry.built,
            "keys_reused": self.registry.reused,
            "gate_memo_size": gate_memo_size(),
            "breakers": [b.snapshot() for b in self._breakers],
            "tenants": {
                name: {
                    "submitted": s.submitted,
                    "admitted": s.admitted,
                    "rejected": s.rejected,
                    "shed": s.shed,
                    "completed": s.completed,
                    "failed": s.failed,
                    "quarantined": s.quarantined,
                    "inflight": s.inflight,
                    "shard": s.shard,
                    "key": s.key.fingerprint,
                }
                for name, s in sorted(self.sessions.items())
            },
        }

    def health(self) -> dict:
        """Readiness view: breaker states, queue depths, books summary.

        ``ready`` means the service is running and at least one shard's
        breaker is accepting traffic — a load balancer's probe target.
        """
        breakers = [b.snapshot() for b in self._breakers]
        return {
            "running": self._running,
            "ready": self._running and any(
                b["state"] != _res.OPEN for b in breakers
            ),
            "shards": [
                {
                    "shard": index,
                    "queued": (
                        self._queues[index].qsize() if self._queues else 0
                    ),
                    **snap,
                }
                for index, snap in enumerate(breakers)
            ],
            "sessions": len(self.sessions),
            "gate_memo_size": gate_memo_size(),
            "quarantined": self.quarantined,
            "retried": self.retried,
            "shed": self.shed,
        }

    def check_books(self) -> None:
        """Raise if the admission/settlement ledgers do not balance."""
        if self.submitted != self.admitted + self.rejected + self.shed:
            raise InvariantViolation(  # pragma: no cover - ledger bug
                f"serve books broken: submitted={self.submitted} != "
                f"admitted={self.admitted} + rejected={self.rejected} + "
                f"shed={self.shed}"
            )
        queued = sum(queue.qsize() for queue in self._queues)
        settled = self.completed + self.failed + self.quarantined
        if self.admitted != settled + queued:
            raise InvariantViolation(  # pragma: no cover - ledger bug
                f"serve books broken: admitted={self.admitted} != "
                f"completed={self.completed} + failed={self.failed} + "
                f"quarantined={self.quarantined} + queued={queued}"
            )
        if self.expired + self.cancelled > self.failed:
            raise InvariantViolation(  # pragma: no cover - ledger bug
                f"serve books broken: expired={self.expired} + "
                f"cancelled={self.cancelled} exceeds failed={self.failed}"
            )
