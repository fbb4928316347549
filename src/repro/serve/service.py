"""The async multi-tenant encrypted-compute service, :class:`BitPackerServe`.

Composes the repo's batch pieces into a long-running system:

admission -> verify gate -> per-shard queue -> batcher -> kernel call
   |              |                |               |          |
 404/400/422   ScheduleViolation  429 once the   coalesce     repro
 on bad input  at the front door  queue is full  compatible   .backends
                                                 ops          (500 if it raises)

- **Sessions** bind a tenant to a *verified* schedule and to shared
  :class:`~repro.serve.keys.KeyMaterial`.  Registration runs every
  trace through the :func:`~repro.analysis.absint.verify_or_raise`
  gate (content-keyed, single-flight memo), so a malformed schedule is
  rejected before it can poison a batch.
- **Sharding** routes a session by its key fingerprint: one key's
  traffic serializes on one worker, which keeps its tables hot and
  makes per-tenant ordering trivial.
- **Backpressure**: shard queues hold ``queue_depth`` requests;
  admission into a full queue returns a 429-class rejection at once
  instead of blocking the loop.
- **Batching**: each worker drains whatever is queued (up to
  ``max_batch``) and coalesces compatible ops
  (:mod:`repro.serve.batch`).  A group is one compatibility check,
  one span and one settlement pass, with one :mod:`repro.backends`
  call per member: stacking the members' operands cost more in copies
  than it saved in calls.  Results are byte-identical to serial
  execution — batching is a latency/throughput decision, never a
  numerical one.
- **Failure model** (DESIGN.md Sec. 13): a dispatch that raises
  settles every member of its group as a 500 and the worker carries
  on; ``stop()`` finishes queued work, then settles anything left as a
  503, so no submitter awaits a future that will not resolve.
- **Observability**: one set of always-on books, global and per
  tenant (:meth:`BitPackerServe.stats`), and, when profiling is on, a
  ``serve/batch`` :mod:`repro.obs` span around every dispatch.

The service is single-event-loop: workers are asyncio tasks and the
kernel calls run inline (they are short at service ring degrees and
release little).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.absint import GATE, verify_or_raise
from repro.errors import InvariantViolation, ParameterError
from repro.obs import core as _obs
from repro.serve import batch as _batch
from repro.serve.keys import KeyMaterial, KeyParams, KeyRegistry
from repro.trace.program import HeTrace

#: Default serve ring degree: big enough to exercise the batched
#: kernels, small enough that a load test runs in seconds.
DEFAULT_N = 64
DEFAULT_WORD_BITS = 28


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
    completed: int = 0
    failed: int = 0
    #: Admitted but not yet settled.
    inflight: int = 0

    def op_for(self, op_index: int):
        return self.trace.ops[op_index]


@dataclass
class ServeResponse:
    """What a submitter gets back.  ``ok`` iff the op executed.

    ``status`` values: ``ok`` (200), ``rejected`` (400/404/422/429
    admission refusals), ``error`` (500 the dispatch raised, 503
    service stopped before execution).
    """

    status: str  # "ok" | "rejected" | "error"
    code: int  # HTTP-style: 200, 400, 404, 422, 429, 500, 503
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
        max_batch: int = 16,
    ):
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if queue_depth < 1:
            raise ParameterError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        self.shards = shards
        self.queue_depth = queue_depth
        self.max_batch = max_batch
        self.registry = KeyRegistry()
        self.sessions: dict[str, TenantSession] = {}
        self._queues: list[asyncio.Queue] = []
        self._workers: list[asyncio.Task] = []
        self._running = False
        # The service's one set of books: always on, read by stats().
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        #: 503s: stopped before execution (a subset of ``failed``).
        self.cancelled = 0
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

    async def stop(self) -> None:
        """Finish all queued work, then stop the workers.

        Anything still pending once the workers are cancelled settles
        as a 503-class ``error``: a stopped service never leaves a
        submitter awaiting a future that will not resolve, and the
        books still balance (the cancellations count as
        ``failed``/``cancelled``).
        """
        if not self._running:
            return
        self._running = False  # new submits now refuse; queued work settles
        await asyncio.gather(*(queue.join() for queue in self._queues))
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

    async def __aenter__(self) -> "BitPackerServe":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop()
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
    ) -> TenantSession:
        """Create a session: verify the schedule, bind key material.

        ``trace`` may be given directly, or built from a bundled
        workload (``app``/``bs``/``scheme``).  Raises
        :class:`~repro.errors.ScheduleViolationError` when the schedule
        fails the static gate — the request never reaches a queue.
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

    async def submit(
        self, tenant: str, op_index: int, a: np.ndarray, b: np.ndarray,
    ) -> ServeResponse:
        """Admit one ciphertext op and await its (possibly batched) result.

        Admission failures resolve immediately with ``rejected``
        responses and HTTP-style codes; admitted requests resolve when
        their batch executes (or raises), or the service stops.
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
            a=a, b=b,
        )
        try:
            _batch.validate_operands(request)
        except ParameterError as exc:
            return self._reject(session, tenant, 422, str(exc), op_index)
        queue = self._queues[session.shard]
        if queue.full():
            return self._reject(
                session, tenant, 429,
                f"shard {session.shard} queue full "
                f"({self.queue_depth} queued)", op_index,
            )
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

    async def _run_group(
        self, shard: int, group: list[_batch.OpRequest]
    ) -> None:
        """Run one coalesced group: one span, one kernel call per
        member, settle.

        A dispatch that raises settles every member as ``error`` 500
        and returns, so the worker carries on and no submitter is left
        waiting.
        """
        self.batches += 1
        self.batched_requests += len(group)
        self.max_batch_seen = max(self.max_batch_seen, len(group))
        try:
            with _obs.span(
                "serve/batch", shard=shard, op=group[0].op,
                level=group[0].level, size=len(group),
            ):
                results = _batch.execute_group(group)
        except Exception as exc:
            reason = f"dispatch failed: {type(exc).__name__}: {exc}"
            for request in group:
                self._settle(
                    request, "error", 500, batch_size=len(group),
                    reason=reason,
                )
            return
        for request, result in zip(group, results):
            self._settle(
                request, "ok", 200, result=result, batch_size=len(group)
            )

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
        else:
            self.failed += 1
            session.failed += 1
        future.set_result(ServeResponse(
            status=status, code=code, tenant=request.tenant,
            op_index=op_index, result=result, batch_size=batch_size,
            latency_s=latency, reason=reason,
        ))
        return True

    def _settle_cancelled(self, request: _batch.OpRequest) -> None:
        if self._settle(
            request, "error", 503,
            reason="service stopped before execution",
        ):
            self.cancelled += 1

    # ------------------------------------------------------------------
    # Books
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The service's always-on accounting, consistency-checkable:
        ``submitted == admitted + rejected`` always, and after
        :meth:`stop` ``admitted == completed + failed``.

        ``shed`` and ``retried`` are constant zeros: the service sheds
        and retries nothing, and the keys stay only because the frozen
        ladder (``benchmarks/ladder/serve.py``) reads them.  The ladder
        thaw (ROADMAP.md) removes them.
        """
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": 0,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "retried": 0,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch_size": (
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            "keys_built": self.registry.built,
            "keys_reused": self.registry.reused,
            "gate_memo_size": gate_memo_size(),
            "tenants": {
                name: {
                    "submitted": s.submitted,
                    "admitted": s.admitted,
                    "rejected": s.rejected,
                    "completed": s.completed,
                    "failed": s.failed,
                    "inflight": s.inflight,
                    "shard": s.shard,
                    "key": s.key.fingerprint,
                }
                for name, s in sorted(self.sessions.items())
            },
        }

    def check_books(self) -> None:
        """Raise if the admission/settlement ledgers do not balance."""
        if self.submitted != self.admitted + self.rejected:
            raise InvariantViolation(  # pragma: no cover - ledger bug
                f"serve books broken: submitted={self.submitted} != "
                f"admitted={self.admitted} + rejected={self.rejected}"
            )
        queued = sum(queue.qsize() for queue in self._queues)
        if self.admitted != self.completed + self.failed + queued:
            raise InvariantViolation(  # pragma: no cover - ledger bug
                f"serve books broken: admitted={self.admitted} != "
                f"completed={self.completed} + failed={self.failed} + "
                f"queued={queued}"
            )
        if self.cancelled > self.failed:
            raise InvariantViolation(  # pragma: no cover - ledger bug
                f"serve books broken: cancelled={self.cancelled} "
                f"exceeds failed={self.failed}"
            )
