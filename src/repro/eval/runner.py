"""Parallel, disk-cached, fault-tolerant experiment runner.

The per-figure harnesses (Figs. 10-19, Table 1, Secs. 6.1-6.3) evaluate
grids of ``(app, bs, scheme, word, machine)`` points.  Three properties
of those grids shape this module:

- **Points recur across figures and invocations.**  Fig. 15 and Fig. 16
  are derived views of Fig. 14's sweep; Sec. 6.2 re-evaluates two of its
  columns; separate CLI invocations share everything.  A
  content-addressed on-disk cache (:class:`RunnerCache`) makes every
  artifact compute-once: records are keyed by a stable hash of the full
  parameterization plus a fingerprint of the model's calibration
  constants, so editing a constant invalidates stale entries instead of
  silently serving them.
- **Points are independent.**  :func:`map_grid` fans a grid out over a
  ``ProcessPoolExecutor`` while keeping results keyed by grid position,
  so parallel runs render byte-identically to serial ones.
- **Long sweeps must survive partial failure.**  A crashed worker
  (``BrokenProcessPool``), a hung simulation point, or a truncated cache
  record must cost one replay, not the whole multi-figure run.
  :func:`map_grid` retries crash-like failures with exponential backoff,
  respawns broken pools and resumes from already-completed positions
  (the disk cache makes replays cheap), recycles the pool when a task
  blows its deadline, and degrades to serial in-process execution after
  repeated pool failures.  Every recovery step is recorded as a
  :class:`RunEvent` so harnesses and tests can assert on exactly what
  happened.  Deterministic library errors (``ReproError``) are *never*
  retried — replaying a deterministic failure cannot succeed — and the
  whole layer is exercised by the fault injector in
  :mod:`repro.eval.faults` (DESIGN.md Sec. 9).

The cache layers *under* the in-process ``lru_cache`` in
:mod:`repro.eval.common`: a process first consults its memory cache,
then the disk store, and only then recomputes (and persists) the
artifact.  Stores are atomic (write-temp-then-``os.replace``) so a
killed worker can never publish a torn record, and unreadable or
schema-mismatched records are quarantined to ``<cache-dir>/corrupt/``
and treated as misses instead of aborting the sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import os
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ParameterError, ReproError, RunnerError
from repro.eval import faults
from repro.obs import core as _obs

#: Bump to invalidate every existing cache record (layout changes).
#: v2: records carry an explicit ``schema`` field (fault-tolerance PR).
#: v3: ``SimResult`` payloads carry the ``kernel_cycles`` attribution
#: table (observability PR); older records would deserialize with an
#: empty table and break profile accounting.
CACHE_SCHEMA_VERSION = 3

ENV_CACHE_DIR = "BITPACKER_CACHE_DIR"
ENV_CACHE_ENABLED = "BITPACKER_CACHE"

#: How often the parallel loop wakes to check deadlines and backoffs.
_POLL_INTERVAL = 0.05


def default_cache_dir() -> Path:
    """``$BITPACKER_CACHE_DIR`` or ``~/.cache/bitpacker-repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bitpacker-repro"


def model_fingerprint() -> str:
    """Digest of every calibration constant the cached artifacts depend on.

    Reads the *live* module attributes each call, so a monkeypatched or
    edited constant changes the fingerprint immediately and previously
    cached records stop matching.  The cost (a small JSON dump + sha256)
    is noise next to the simulations it guards.
    """
    from repro.accel import sim as accel_sim
    from repro.accel.area import DEFAULT_AREA_MODEL
    from repro.accel.config import craterlake
    from repro.accel.energy import DEFAULT_ENERGY_MODEL
    from repro.cpu.model import DEFAULT_CPU_MODEL

    constants = {
        "schema": CACHE_SCHEMA_VERSION,
        "sim": {
            "streaming_fraction": accel_sim.STREAMING_FRACTION,
            "miss_pressure_coeff": accel_sim.MISS_PRESSURE_COEFF,
            "miss_pressure_knee": accel_sim.MISS_PRESSURE_KNEE,
            "spill_turnover": accel_sim.SPILL_TURNOVER,
            "pipeline_residency": accel_sim.PIPELINE_RESIDENCY,
        },
        "config": asdict(craterlake()),
        "energy": asdict(DEFAULT_ENERGY_MODEL),
        "area": asdict(DEFAULT_AREA_MODEL),
        "cpu": asdict(DEFAULT_CPU_MODEL),
    }
    blob = json.dumps(constants, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class RunnerCache:
    """Content-addressed JSON store for evaluation artifacts.

    One record per file under ``cache_dir/<kind>/<digest>.json``, where
    the digest hashes ``(kind, params, model_fingerprint())``.  Records
    carry their parameterization alongside the payload so the store is
    auditable with plain tools, plus an explicit ``schema`` field.

    Failure model: stores publish atomically (temp file +
    ``os.replace`` in the record's own directory), so no reader — not
    even one racing a killed worker — can observe a torn record.  A
    record that still fails to parse, or whose ``schema`` does not
    match, is *quarantined*: moved to ``cache_dir/corrupt/`` for
    post-mortem, counted in :attr:`corrupt_count`, and treated as a
    miss.  Corruption therefore costs one recompute, never an aborted
    sweep.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        enabled: bool = True,
        force: bool = False,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.enabled = enabled
        #: With ``force`` set, lookups miss (artifacts recompute) but the
        #: recomputed values still overwrite their records.
        self.force = force
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        #: Records quarantined because they were unreadable or carried
        #: the wrong schema version.
        self.corrupt_count = 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def cache_key(self, kind: str, params: Mapping[str, Any]) -> str:
        try:
            blob = json.dumps(
                {"kind": kind, "params": dict(params),
                 "fingerprint": model_fingerprint()},
                sort_keys=True, separators=(",", ":"),
            )
        except TypeError as exc:
            raise ParameterError(
                f"cache parameters for {kind!r} are not JSON-serializable: "
                f"{params!r}"
            ) from exc
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def record_path(self, kind: str, params: Mapping[str, Any]) -> Path:
        return self.cache_dir / kind / f"{self.cache_key(kind, params)}.json"

    def quarantine_dir(self) -> Path:
        return self.cache_dir / "corrupt"

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def _count(self, table: dict[str, int], kind: str) -> None:
        table[kind] = table.get(kind, 0) + 1
        if _obs.ACTIVE:
            label = "hit" if table is self.hits else "miss"
            _obs.count(f"cache.{label}.{kind}")

    def hit_count(self, kind: str | None = None) -> int:
        if kind is not None:
            return self.hits.get(kind, 0)
        return sum(self.hits.values())

    def miss_count(self, kind: str | None = None) -> int:
        if kind is not None:
            return self.misses.get(kind, 0)
        return sum(self.misses.values())

    def reset_counters(self) -> None:
        self.hits.clear()
        self.misses.clear()
        self.corrupt_count = 0

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, kind: str, params: Mapping[str, Any]) -> tuple[bool, Any]:
        """``(found, payload)``; a miss is counted for every recompute."""
        if not self.enabled or self.force:
            self._count(self.misses, kind)
            return False, None
        path = self.record_path(kind, params)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            self._count(self.misses, kind)
            return False, None
        except (OSError, ValueError):
            # Truncated or unreadable: keep the evidence, recompute.
            self._quarantine(kind, path)
            self._count(self.misses, kind)
            return False, None
        if (
            not isinstance(record, dict)
            or record.get("schema") != CACHE_SCHEMA_VERSION
            or "payload" not in record
        ):
            self._quarantine(kind, path)
            self._count(self.misses, kind)
            return False, None
        self._count(self.hits, kind)
        return True, record["payload"]

    def store(self, kind: str, params: Mapping[str, Any], payload: Any) -> None:
        if not self.enabled:
            return
        path = self.record_path(kind, params)
        record = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "params": dict(params),
            "fingerprint": model_fingerprint(),
            "payload": payload,
        }
        text = json.dumps(record, sort_keys=True)
        if faults.ACTIVE:
            text = faults.mangle_record(text)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: a concurrent worker never sees a torn file.
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            # An unwritable cache degrades to compute-always, not failure.
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _quarantine(self, kind: str, path: Path) -> None:
        """Move a bad record to ``corrupt/`` (fall back to unlinking)."""
        self.corrupt_count += 1
        if _obs.ACTIVE:
            _obs.count("cache.corrupt")
        try:
            target = self.quarantine_dir()
            target.mkdir(parents=True, exist_ok=True)
            os.replace(path, target / f"{kind}-{path.name}")
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Process-global configuration
# ----------------------------------------------------------------------
_ACTIVE: RunnerCache | None = None

#: Default retry budget: extra attempts after the first, per task.
DEFAULT_RETRIES = 2
#: Default backoff base in seconds (doubles per failure, jittered).
DEFAULT_BACKOFF = 0.1


@dataclass(frozen=True)
class RunPolicy:
    """Failure-handling knobs for :func:`map_grid` (CLI: ``--timeout``,
    ``--retries``)."""

    #: Per-task wall-clock deadline in parallel runs (``None`` = no
    #: deadline; serial runs cannot preempt and never enforce one).
    timeout: float | None = None
    #: Extra attempts after the first, for crash-like failures only.
    retries: int = DEFAULT_RETRIES
    #: Backoff base: the n-th retry of a task waits about
    #: ``backoff * 2**(n-1)`` seconds, jittered to [0.5x, 1.5x).
    backoff: float = DEFAULT_BACKOFF
    backoff_cap: float = 5.0
    #: Pool breakages tolerated before degrading to serial execution.
    pool_failure_limit: int = 3

    def delay_for(self, index: int, failure: int) -> float:
        return backoff_delay(
            self.backoff, self.backoff_cap, "backoff", index, failure
        )


_POLICY = RunPolicy()


def backoff_delay(
    backoff: float, cap: float, salt: str, index: int, failure: int
) -> float:
    """Seconds to wait before retry ``failure`` (1-based) of item ``index``.

    The one backoff curve (map_grid tasks and serve dispatches both use
    it): ``backoff * 2**(failure-1)`` capped at ``cap``, jittered to
    [0.5x, 1.5x) by a hash of ``(salt, index, failure)`` — so the same
    item replays the same delays, and the two layers' jitter streams
    stay independent through their salts.
    """
    if backoff <= 0.0:
        return 0.0
    base = min(cap, backoff * 2.0 ** (failure - 1))
    blob = f"{salt}:{index}:{failure}".encode()
    jitter = int(hashlib.sha256(blob).hexdigest()[:8], 16) / 2.0**32
    return base * (0.5 + jitter)


def configure_policy(
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    backoff_cap: float | None = None,
    pool_failure_limit: int | None = None,
) -> RunPolicy:
    """Install the process-wide :class:`RunPolicy` (``None`` = default)."""
    global _POLICY
    if retries is not None and retries < 0:
        raise ParameterError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ParameterError(f"timeout must be > 0, got {timeout}")
    _POLICY = RunPolicy(
        timeout=timeout,
        retries=DEFAULT_RETRIES if retries is None else retries,
        backoff=DEFAULT_BACKOFF if backoff is None else backoff,
        backoff_cap=RunPolicy.backoff_cap if backoff_cap is None
        else backoff_cap,
        pool_failure_limit=RunPolicy.pool_failure_limit
        if pool_failure_limit is None else pool_failure_limit,
    )
    return _POLICY


def active_policy() -> RunPolicy:
    return _POLICY


def configure(
    cache_dir: str | Path | None = None,
    enabled: bool | None = None,
    force: bool = False,
) -> RunnerCache:
    """Install (and return) the process's cache configuration.

    ``enabled`` defaults to on unless ``BITPACKER_CACHE=0`` is set.
    """
    global _ACTIVE
    if enabled is None:
        enabled = os.environ.get(ENV_CACHE_ENABLED, "1") != "0"
    _ACTIVE = RunnerCache(cache_dir, enabled=enabled, force=force)
    return _ACTIVE


def active_cache() -> RunnerCache:
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = configure()
    return _ACTIVE


def cached(
    kind: str,
    params: Mapping[str, Any],
    compute: Callable[[], Any],
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
) -> Any:
    """Serve ``compute()`` through the disk cache.

    ``encode``/``decode`` bridge rich artifact types (traces, chains,
    results) to JSON payloads; omit both for payloads that already are
    plain JSON values.
    """
    cache = active_cache()
    found, payload = cache.load(kind, params)
    if found:
        return decode(payload) if decode else payload
    value = compute()
    cache.store(kind, params, encode(value) if encode else value)
    return value


# ----------------------------------------------------------------------
# Run events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunEvent:
    """One recovery step taken by :func:`map_grid`.

    ``kind`` is one of: ``task-error`` (an attempt raised),
    ``task-timeout`` (an attempt blew its deadline), ``task-retry``
    (a failed task was rescheduled), ``task-exhausted`` (the retry
    budget ran out), ``pool-broken`` (a worker died and took the pool),
    ``pool-respawn`` (a replacement pool was started), ``pool-recycle``
    (the pool was torn down to abandon hung workers), and
    ``serial-fallback`` (remaining tasks moved in-process after
    repeated pool failures).
    """

    kind: str
    task: int | None = None
    attempt: int | None = None
    error: str | None = None
    latency: float | None = None


_EVENTS: list[RunEvent] = []
#: Guards the module event log.  Concurrent runners (the serve layer
#: drives map_grid from worker threads) append while another drains;
#: without the lock an event appended between ``list(_EVENTS)`` and
#: ``_EVENTS.clear()`` would be silently dropped, and two simultaneous
#: drains could hand the same event to both callers.
_EVENTS_LOCK = threading.Lock()


def record_event(event: RunEvent) -> None:
    """Append one event to the module log (lock-protected)."""
    with _EVENTS_LOCK:
        _EVENTS.append(event)


def take_events() -> list[RunEvent]:
    """Drain the recovery events recorded since the last call.

    Atomic with respect to producers: every recorded event is returned
    by exactly one drain.
    """
    with _EVENTS_LOCK:
        events = list(_EVENTS)
        _EVENTS.clear()
    return events


# ----------------------------------------------------------------------
# Parallel fan-out
# ----------------------------------------------------------------------
def _worker_init(
    cache_dir: str, enabled: bool, force: bool, fault_spec: str | None
) -> None:
    configure(cache_dir=cache_dir, enabled=enabled, force=force)
    faults.configure(fault_spec)
    faults.mark_worker()


def _invoke(func: Callable, kwargs: dict, index: int, attempt: int) -> Any:
    if faults.ACTIVE:
        faults.fire_task(index, attempt)
    return func(**kwargs)


def map_grid(
    func: Callable,
    calls: Sequence[Mapping[str, Any]] | Iterable[Mapping[str, Any]],
    jobs: int = 1,
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    on_exhausted: str = "raise",
    events: list[RunEvent] | None = None,
) -> list[Any]:
    """Evaluate ``func(**kwargs)`` for every grid point, in grid order.

    Results are keyed by position, never by completion order, so a
    parallel run is indistinguishable from a serial one to the caller
    (``results/*.txt`` stay byte-identical).  With ``jobs <= 1`` the grid
    runs in-process, sharing the caller's memory caches; with more jobs a
    ``ProcessPoolExecutor`` is used and each worker inherits the parent's
    disk-cache (and fault-injection) configuration, so everything
    computed in a worker is visible to later serial runs.

    Failure handling: crash-like failures (anything that is not a
    ``ReproError``) are retried up to ``retries`` extra times with
    jittered exponential backoff; in parallel runs a task past
    ``timeout`` seconds is abandoned (its pool is recycled) and
    retried; a broken pool is respawned and only unfinished positions
    are resubmitted, degrading to serial execution after
    ``pool_failure_limit`` breakages.  ``timeout``/``retries``/
    ``backoff`` default to the process :class:`RunPolicy` (see
    :func:`configure_policy`).  When a task exhausts its budget the
    runner raises :class:`~repro.errors.RunnerError` — or, with
    ``on_exhausted="none"``, records ``None`` at that grid position and
    finishes the rest.  Every recovery is appended to ``events`` (and
    to the module log drained by :func:`take_events`).
    """
    grid = [dict(kwargs) for kwargs in calls]
    if jobs is None:
        jobs = 1
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if on_exhausted not in ("raise", "none"):
        raise ParameterError(
            f"on_exhausted must be 'raise' or 'none', got {on_exhausted!r}"
        )
    policy = _POLICY
    overrides = {}
    if timeout is not None:
        overrides["timeout"] = timeout
    if retries is not None:
        overrides["retries"] = retries
    if backoff is not None:
        overrides["backoff"] = backoff
    if overrides:
        policy = dataclasses.replace(policy, **overrides)

    run = _GridRun(func, grid, policy, on_exhausted, events)
    serial = jobs == 1 or len(grid) <= 1
    if not _obs.ACTIVE:
        if serial:
            run.run_serial(range(len(grid)))
        else:
            run.run_parallel(jobs)
        return run.results
    # One span per map_grid call; task spans are synthesized parent-side
    # in grid-position order, so the tree shape is identical for serial
    # and parallel runs (the parity contract tested in test_obs.py).
    with _obs.span("map_grid", tasks=len(grid)):
        try:
            if serial:
                run.run_serial(range(len(grid)))
            else:
                run.run_parallel(jobs)
        finally:
            run.attach_task_spans()
    return run.results


class _GridRun:
    """State of one :func:`map_grid` execution (results, budgets, events)."""

    def __init__(
        self,
        func: Callable,
        grid: list[dict],
        policy: RunPolicy,
        on_exhausted: str,
        events: list[RunEvent] | None,
    ):
        self.func = func
        self.grid = grid
        self.policy = policy
        self.on_exhausted = on_exhausted
        self.sink = events
        self.results: list[Any] = [None] * len(grid)
        #: Times each task has been started (drives fault schedules).
        self.attempts = [0] * len(grid)
        #: Genuine failures per task (drives the retry budget; collateral
        #: reruns after a pool breakage do not count).
        self.failures = [0] * len(grid)
        self.outstanding = len(grid)
        #: Per-task ``(t0, wall_s)`` in the recorder's timebase, filled
        #: on success while profiling (parallel tasks complete out of
        #: order; spans are attached in position order afterwards).
        self.task_times: list[tuple[float, float] | None] = [None] * len(grid)

    # -- events --------------------------------------------------------
    def emit(
        self,
        kind: str,
        task: int | None = None,
        attempt: int | None = None,
        error: str | None = None,
        latency: float | None = None,
    ) -> None:
        event = RunEvent(
            kind=kind, task=task, attempt=attempt, error=error,
            latency=latency,
        )
        record_event(event)
        if self.sink is not None:
            self.sink.append(event)
        if _obs.ACTIVE:
            _obs.count(f"runner.events.{kind}")

    def record_success(self, index: int, latency: float) -> None:
        """Profile bookkeeping for one completed task (parent-side)."""
        if _obs.ACTIVE:
            self.task_times[index] = (_obs.now() - latency, latency)
            _obs.observe("runner.task_seconds", latency)

    def attach_task_spans(self) -> None:
        """Attach one ``task`` span per completed grid position, in
        position order — the source of serial/parallel profile parity."""
        if not _obs.ACTIVE:
            return
        for index, timing in enumerate(self.task_times):
            if timing is None:
                continue
            t0, wall = timing
            _obs.attach_span("task", {"index": index}, t0, wall)

    # -- shared failure accounting -------------------------------------
    def record_failure(
        self, index: int, exc: BaseException, latency: float | None,
        kind: str = "task-error",
    ) -> float | None:
        """Count a genuine failure; return the retry delay, or ``None``
        when the budget is exhausted (after applying ``on_exhausted``)."""
        self.failures[index] += 1
        name = type(exc).__name__
        self.emit(kind, index, self.attempts[index], name, latency)
        if self.failures[index] > self.policy.retries:
            self.emit(
                "task-exhausted", index, self.attempts[index], name, latency
            )
            if self.on_exhausted == "none":
                self.results[index] = None
                self.outstanding -= 1
                return None
            raise RunnerError(
                f"grid task {index} failed after {self.attempts[index]} "
                f"attempt(s): {exc!r}"
            ) from exc
        delay = self.policy.delay_for(index, self.failures[index])
        self.emit("task-retry", index, self.attempts[index], name)
        return delay

    # -- serial execution ----------------------------------------------
    def run_serial(self, indices: Iterable[int]) -> None:
        """Run ``indices`` in-process (the ``jobs=1`` path and the
        fallback after repeated pool failures).

        No deadline is enforced — a single process cannot preempt
        itself — and injected ``kill`` faults downgrade to ``raise``
        (see :func:`repro.eval.faults.fire_task`).
        """
        for index in indices:
            while True:
                self.attempts[index] += 1
                started = time.monotonic()
                try:
                    value = _invoke(
                        self.func, self.grid[index], index,
                        self.attempts[index],
                    )
                except ReproError:
                    raise
                except Exception as exc:
                    delay = self.record_failure(
                        index, exc, time.monotonic() - started
                    )
                    if delay is None:  # exhausted into a positioned None
                        break
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                self.results[index] = value
                self.outstanding -= 1
                self.record_success(index, time.monotonic() - started)
                break

    # -- parallel execution --------------------------------------------
    def run_parallel(self, jobs: int) -> list[Any]:
        cache = active_cache()
        workers = min(jobs, len(self.grid))
        initargs = (
            str(cache.cache_dir), cache.enabled, cache.force,
            faults.active_spec(),
        )
        ready: deque[int] = deque(range(len(self.grid)))
        delayed: list[tuple[float, int]] = []  # (resume_at, index) heap
        inflight: dict[Any, tuple[int, float]] = {}  # future -> (idx, t0)
        pool: ProcessPoolExecutor | None = None
        pool_failures = 0
        pools_created = 0

        def requeue_inflight() -> None:
            # Collateral victims of a pool breakage/recycle rerun
            # without consuming retry budget; their attempt counter
            # still advances at resubmit, so one-shot scheduled faults
            # do not re-fire.
            for _future, (index, _started) in inflight.items():
                ready.append(index)
            inflight.clear()

        def discard_pool(terminate: bool) -> None:
            nonlocal pool
            if pool is None:
                return
            # _processes is internal, but it is the only handle on hung
            # workers: shutdown() never kills a stuck process, so a
            # deadline-based recycle must terminate them explicitly.
            procs = list((pool._processes or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            if terminate:
                for proc in procs:
                    proc.terminate()
            pool = None

        try:
            while self.outstanding:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[1])
                if pool_failures > self.policy.pool_failure_limit:
                    self.emit("serial-fallback", error=f"{pool_failures} pool failures")
                    requeue_inflight()
                    remaining = sorted(
                        set(ready) | {index for _at, index in delayed}
                    )
                    ready.clear()
                    delayed.clear()
                    self.run_serial(remaining)
                    return self.results
                if pool is None and ready:
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_worker_init,
                        initargs=initargs,
                    )
                    pools_created += 1
                    if pools_created > 1:
                        self.emit("pool-respawn")
                # Bounded submission: only as many in flight as workers,
                # so a task's deadline clock never includes queue time.
                while pool is not None and ready and len(inflight) < workers:
                    index = ready.popleft()
                    self.attempts[index] += 1
                    future = pool.submit(
                        _invoke, self.func, self.grid[index], index,
                        self.attempts[index],
                    )
                    inflight[future] = (index, time.monotonic())
                if not inflight:
                    if delayed:
                        pause = delayed[0][0] - time.monotonic()
                        if pause > 0.0:
                            time.sleep(min(pause, _POLL_INTERVAL))
                    continue
                done, _pending = wait(
                    set(inflight), timeout=_POLL_INTERVAL,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    index, started = inflight.pop(future)
                    latency = time.monotonic() - started
                    try:
                        value = future.result()
                    except BrokenExecutor:
                        broken = True
                        ready.append(index)
                    except ReproError:
                        raise
                    except Exception as exc:
                        delay = self.record_failure(index, exc, latency)
                        if delay is not None:
                            heapq.heappush(
                                delayed, (time.monotonic() + delay, index)
                            )
                    else:
                        self.results[index] = value
                        self.outstanding -= 1
                        self.record_success(index, latency)
                if broken:
                    pool_failures += 1
                    self.emit(
                        "pool-broken", error="BrokenProcessPool",
                    )
                    requeue_inflight()
                    discard_pool(terminate=False)
                    continue
                if self.policy.timeout is not None and inflight:
                    now = time.monotonic()
                    overdue = [
                        (future, index, started)
                        for future, (index, started) in inflight.items()
                        if now - started > self.policy.timeout
                    ]
                    if overdue:
                        for future, index, started in overdue:
                            inflight.pop(future)
                            delay = self.record_failure(
                                index,
                                TimeoutError(
                                    f"task {index} exceeded "
                                    f"{self.policy.timeout}s"
                                ),
                                now - started,
                                kind="task-timeout",
                            )
                            if delay is not None:
                                heapq.heappush(delayed, (now + delay, index))
                        # The hung workers are unusable; recycle the pool
                        # and rerun the unrelated in-flight tasks.
                        self.emit("pool-recycle", error="TimeoutError")
                        requeue_inflight()
                        discard_pool(terminate=True)
        except BaseException as exc:
            # Includes KeyboardInterrupt: cancel queued work, kill
            # workers, and let the caller see the interruption.  Results
            # already computed live in the disk cache, so a re-run
            # resumes from them.
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                self.emit("interrupted", error=type(exc).__name__)
            discard_pool(terminate=True)
            raise
        discard_pool(terminate=False)
        return self.results
