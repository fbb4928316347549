"""Disk-cached experiment runner: an ordered map over two caches.

The per-figure harnesses (Figs. 10-19, Table 1, Secs. 6.1-6.3) evaluate
grids of ``(app, bs, scheme, word, machine)`` points, and the whole
evaluation is a deterministic batch job of about a minute.  Two
properties of those grids shape this module:

- **Points recur across figures and invocations.**  Fig. 15 and Fig. 16
  are derived views of Fig. 14's sweep; Sec. 6.2 re-evaluates two of its
  columns; separate CLI invocations share everything.  A
  content-addressed on-disk cache (:class:`RunnerCache`) makes every
  artifact compute-once: records are keyed by a stable hash of the full
  parameterization plus a fingerprint of the model's calibration
  constants, so editing a constant moves every key instead of silently
  serving stale entries.
- **Points are independent and cheap to replay.**  :func:`map_grid`
  evaluates a grid in order, in process, sharing the caller's memory
  caches; an exception leaves it on first occurrence.  Recovery from a
  killed or interrupted run is to run the same command again: every
  finished point is a disk hit (DESIGN.md Sec. 8).

The cache layers *under* the in-process ``lru_cache`` in
:mod:`repro.eval.common`: a process first consults its memory cache,
then the disk store, and only then recomputes (and persists) the
artifact.  Stores are atomic (write-temp-then-``os.replace``) so a
killed run can never publish a torn record, and unreadable,
schema-mismatched or undecodable records are quarantined to
``<cache-dir>/corrupt/`` and treated as misses instead of aborting the
sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ParameterError
from repro.eval import faults
from repro.obs import core as _obs

#: Bump to orphan every existing cache record (layout changes).
#: v2: records carry an explicit ``schema`` field (fault-tolerance PR).
#: v3: ``SimResult`` payloads carry the ``kernel_cycles`` attribution
#: table (observability PR); older records would deserialize with an
#: empty table and break profile accounting.
#: v4: ``precision``/``table1`` samples come from a context keyed inside
#: each computation; older records froze whichever figure ran first.
#: v5: ``chain`` records carry no ``groups`` (derived from the levels).
CACHE_SCHEMA_VERSION = 5

#: What a decoder raises on a payload that parsed but is not the
#: artifact it claims to be (a key deleted, a value of the wrong type).
DECODE_ERRORS = (LookupError, TypeError, ValueError, ParameterError)

ENV_CACHE_DIR = "BITPACKER_CACHE_DIR"
ENV_CACHE_ENABLED = "BITPACKER_CACHE"


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
    even one racing a killed run — can observe a torn record.  A
    record that still fails to parse, whose ``schema`` does not match,
    or whose payload the artifact's decoder refuses, is *quarantined*:
    moved to ``cache_dir/corrupt/`` for
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
        #: Records quarantined because they were unreadable, carried the
        #: wrong schema version or did not decode.
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
    def load(
        self,
        kind: str,
        params: Mapping[str, Any],
        decode: Callable[[Any], Any] | None = None,
    ) -> tuple[bool, Any]:
        """``(found, payload)``, the payload passed through ``decode`` when
        one is given; a miss is counted for every recompute.  A payload
        ``decode`` refuses (:data:`DECODE_ERRORS`) is a bad record."""
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
        payload = record["payload"]
        if decode is not None:
            try:
                payload = decode(payload)
            except DECODE_ERRORS:
                self._quarantine(kind, path)
                self._count(self.misses, kind)
                return False, None
        self._count(self.hits, kind)
        return True, payload

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
        text = faults.mangle_record(json.dumps(record, sort_keys=True))
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: a concurrent run never sees a torn file.
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
    found, value = cache.load(kind, params, decode)
    if found:
        return value
    value = compute()
    if cache.enabled:  # encoding a trace is not free; skip it when unwritten
        cache.store(kind, params, encode(value) if encode else value)
    return value


# ----------------------------------------------------------------------
# The grid map
# ----------------------------------------------------------------------
def map_grid(
    func: Callable, calls: Iterable[Mapping[str, Any]]
) -> list[Any]:
    """Evaluate ``func(**kwargs)`` for every grid point, in grid order.

    The grid runs in process, so every point shares the caller's memory
    caches and the ``obs`` recorder: while profiling, the call is one
    ``map_grid`` span holding one ``task`` span per point, and whatever
    a point records nests under its own task (the task-latency
    quantiles are read off those spans,
    :func:`repro.obs.export.span_quantiles`).  An exception propagates
    from the first point that raises it; the points before it are
    already in the disk cache, so re-running resumes from them.
    """
    grid = list(calls)
    results = []
    with _obs.span("map_grid", tasks=len(grid)):
        for index, kwargs in enumerate(grid):
            with _obs.span("task", index=index):
                results.append(func(**kwargs))
    return results
