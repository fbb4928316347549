"""The async multi-tenant serve layer: keys, batching, admission,
backpressure, the verify gate, the failure model (deadlines, dispatch
failure, drain), the load generator, and end-to-end runs.

The load-bearing invariant is **zero response corruption**: a coalesced
batch must be byte-identical to serial execution, and
mixed-level traffic must never coalesce at all.  Everything else
(backpressure, books, determinism) guards the service's accounting; the
books balance after every scenario (DESIGN.md Sec. 13)::

    submitted == admitted + rejected
    admitted  == completed + failed (+ still queued)
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

import repro.backends as backends
from repro.analysis.absint import GATE
from repro.cli import main as cli_main
from repro.errors import ParameterError, ScheduleViolationError
from repro.serve import batch as sbatch
from repro.serve import service as sservice
from repro.serve.keys import KeyMaterial, KeyParams, KeyRegistry
from repro.serve.loadgen import (
    LoadReport,
    LoadSpec,
    build_schedule,
    operands_for,
    run_scenario,
    tenant_name,
)
from repro.serve.service import BitPackerServe
from repro.trace.program import HeTrace, OpKind, TraceOp, content_digest

# One id per engine ``available_backends()`` names: the ids are pinned by
# the tier-1 floor, and a re-admitted engine would show up here.
ENGINES = backends.available_backends()


@pytest.fixture(autouse=True)
def _fresh_gate():
    GATE.clear()
    yield
    GATE.clear()


def admit(trace):
    """The serve front-door gate call, as ``register`` makes it."""
    GATE.admit(trace, sservice.verify_or_raise)


def serve_trace(n=64, levels=2):
    """A small clean schedule with executable ops at every level."""
    ops = []
    for level in range(levels, 0, -1):
        ops.append(TraceOp(OpKind.HMUL, level))
        ops.append(TraceOp(OpKind.RESCALE, level))
    ops.append(TraceOp(OpKind.HADD, 0))
    return HeTrace(
        name="serve-fixture", n=n, base_bits=60.0,
        level_scale_bits=(30.0,) * (levels + 1), ops=ops,
    )


def violating_trace(n=64):
    """Fails the static gate: op level outside the trace's chain."""
    return HeTrace(
        name="serve-broken", n=n, base_bits=60.0,
        level_scale_bits=(30.0, 30.0), ops=[TraceOp(OpKind.HMUL, 99)],
    )


def seeded_operands(key, level, seed, n=64):
    rng = np.random.default_rng(seed)
    moduli = key.moduli_at(level)
    a = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in moduli])
    b = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in moduli])
    return a, b


def make_request(key, level, op="mul", seed=0, tenant="t", n=64):
    a, b = seeded_operands(key, level, seed, n=n)
    return sbatch.OpRequest(
        tenant=tenant, key=key, op=op, level=level, a=a, b=b
    )


async def run_service(coro_fn, **kwargs):
    async with BitPackerServe(**kwargs) as service:
        return await coro_fn(service)


def stall_groups(monkeypatch, seconds):
    """Make every coalesced group wait ``seconds`` on the event loop
    before it runs: a straggler that yields, so a deadline can pass
    and ``stop()`` can land while work is queued or in flight."""
    real = BitPackerServe._run_group

    async def stalled(self, shard, group):
        await asyncio.sleep(seconds)
        await real(self, shard, group)

    monkeypatch.setattr(BitPackerServe, "_run_group", stalled)


class TestKeys:
    def test_registry_interns_by_params(self):
        registry = KeyRegistry()
        k1 = registry.get(KeyParams(n=64, word_bits=28, levels=3))
        k2 = registry.get(KeyParams(n=64, word_bits=28, levels=3))
        k3 = registry.get(KeyParams(n=64, word_bits=28, levels=4))
        assert k1 is k2
        assert k1 is not k3
        assert registry.built == 2
        assert registry.reused == 1
        assert len(registry) == 2

    def test_fingerprint_is_content_identity(self):
        a = KeyMaterial(KeyParams(n=64, word_bits=28, levels=3))
        b = KeyMaterial(KeyParams(n=64, word_bits=28, levels=3))
        c = KeyMaterial(KeyParams(n=128, word_bits=28, levels=3))
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_moduli_are_ntt_friendly_and_level_sliced(self):
        key = KeyMaterial(KeyParams(n=64, word_bits=28, levels=3))
        assert len(key.primes) == 4
        for prime in key.primes:
            assert prime < 1 << 28
            assert prime % (2 * 64) == 1
        assert key.moduli_at(1) == key.primes[:2]
        assert key.q_col(1).shape == (2, 1)
        with pytest.raises(ParameterError):
            key.moduli_at(4)

    def test_bad_params_rejected(self):
        with pytest.raises(ParameterError):
            KeyParams(n=48, word_bits=28, levels=1)
        with pytest.raises(ParameterError):
            KeyParams(n=64, word_bits=3, levels=1)
        with pytest.raises(ParameterError):
            KeyParams(n=64, word_bits=28, levels=-1)


class TestBatching:
    """Satellite 4: coalesced results byte-identical to serial."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("op", ["mul", "add"])
    def test_batched_matches_serial_bytewise(self, engine, op):
        # 31-bit primes take the narrow kernels; the wide kernels give
        # them the same bytes.
        for word_bits in (28, 31):
            key = KeyMaterial(KeyParams(n=64, word_bits=word_bits, levels=3))
            assert key.kind == "narrow"
            group = [
                make_request(key, level=3, op=op, seed=seed)
                for seed in range(7)
            ]
            serial = [sbatch.execute_serial(r) for r in group]
            batched = sbatch.execute_group(group)
            assert len(batched) == len(serial)
            for request, got, want in zip(group, batched, serial):
                wide = sbatch._kernel(
                    op, request.a, request.b, key.q_col(3), "wide"
                )
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes() == wide.tobytes()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mixed_level_traffic_never_coalesces(self, engine):
        key = KeyMaterial(KeyParams(n=64, word_bits=28, levels=3))
        run = [
            make_request(key, level=level, op="mul", seed=10 + level)
            for level in (3, 1, 3, 2, 1)
        ]
        groups = sbatch.coalesce(run)
        # One group per level, order of first appearance, members in order.
        assert [[r.level for r in g] for g in groups] == [[3, 3], [1, 1], [2]]
        for group in groups:
            serial = [sbatch.execute_serial(r) for r in group]
            for got, want in zip(sbatch.execute_group(group), serial):
                assert got.tobytes() == want.tobytes()

    def test_mixed_ops_and_keys_split_groups(self):
        k1 = KeyMaterial(KeyParams(n=64, word_bits=28, levels=2))
        k2 = KeyMaterial(KeyParams(n=64, word_bits=27, levels=2))
        run = [
            make_request(k1, 2, "mul", seed=1),
            make_request(k1, 2, "add", seed=2),
            make_request(k2, 2, "mul", seed=3),
            make_request(k1, 2, "mul", seed=4),
        ]
        groups = sbatch.coalesce(run)
        assert len(groups) == 3
        assert [len(g) for g in groups] == [2, 1, 1]

    def test_incompatible_group_refused(self):
        key = KeyMaterial(KeyParams(n=64, word_bits=28, levels=2))
        group = [
            make_request(key, 2, "mul", seed=1),
            make_request(key, 1, "mul", seed=2),
        ]
        with pytest.raises(ParameterError, match="incompatible batch"):
            sbatch.execute_group(group)

    def test_validate_operands_rejects_bad_shapes(self):
        key = KeyMaterial(KeyParams(n=64, word_bits=28, levels=2))
        good = make_request(key, 2, "mul")
        sbatch.validate_operands(good)
        bad_shape = make_request(key, 1, "mul")
        bad_shape.level = 2  # rows no longer match level + 1
        with pytest.raises(ParameterError, match="shape"):
            sbatch.validate_operands(bad_shape)
        bad_dtype = make_request(key, 2, "mul")
        bad_dtype.a = bad_dtype.a.astype(np.int64)
        with pytest.raises(ParameterError, match="uint64"):
            sbatch.validate_operands(bad_dtype)
        bad_op = make_request(key, 2, "rot")
        with pytest.raises(ParameterError, match="unknown serve op"):
            sbatch.validate_operands(bad_op)


class TestAdmission:
    def test_register_rejects_violating_schedule(self):
        async def scenario(service):
            with pytest.raises(ScheduleViolationError):
                service.register("bad", trace=violating_trace())
            assert "bad" not in service.sessions

        asyncio.run(run_service(scenario))

    def test_register_binds_shared_key_material(self):
        async def scenario(service):
            s1 = service.register("a", trace=serve_trace())
            s2 = service.register("b", trace=serve_trace())
            assert s1.key is s2.key
            assert service.registry.reused >= 1
            with pytest.raises(ParameterError, match="already registered"):
                service.register("a", trace=serve_trace())

        asyncio.run(run_service(scenario))

    def test_submit_rejections(self):
        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            a, b = seeded_operands(session.key, level, seed=1)

            ghost = await service.submit("ghost", 0, a, b)
            assert (ghost.status, ghost.code) == ("rejected", 404)

            oob = await service.submit("t", 99, a, b)
            assert (oob.status, oob.code) == ("rejected", 400)

            # op 1 is the RESCALE: schedule-only, carries no payload.
            sched = await service.submit("t", 1, a, b)
            assert (sched.status, sched.code) == ("rejected", 400)
            assert "schedule-only" in sched.reason

            bad = await service.submit("t", 0, a[:1], b)
            assert (bad.status, bad.code) == ("rejected", 422)

            ok = await service.submit("t", 0, a, b)
            assert ok.status == "ok" and ok.code == 200
            service.check_books()
            assert service.rejected == 4 and service.completed == 1

        asyncio.run(run_service(scenario))

    def test_tenant_inflight_cap_is_fair(self):
        """One tenant cannot occupy more than its cap of a shard; the
        overflow is rejected 429 at admission, not queued."""

        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            pairs = [
                seeded_operands(session.key, level, seed=60 + i)
                for i in range(10)
            ]
            responses = await asyncio.gather(*[
                service.submit("t", 0, a, b) for a, b in pairs
            ])
            codes = [r.code for r in responses]
            assert codes.count(200) == 2
            assert codes.count(429) == 8
            capped = next(r for r in responses if r.code == 429)
            assert "inflight cap" in capped.reason
            assert service.sessions["t"].inflight == 0
            service.check_books()

        asyncio.run(run_service(
            scenario, shards=1, queue_depth=32, tenant_inflight_cap=2,
        ))

    def test_backpressure_engages_and_loses_nothing(self):
        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            a, b = seeded_operands(session.key, level, seed=2)
            responses = await asyncio.gather(*[
                service.submit("t", 0, a, b) for _ in range(40)
            ])
            codes = [r.code for r in responses]
            assert codes.count(429) > 0, "backpressure never engaged"
            assert all(r.code in (200, 429) for r in responses)
            assert len(responses) == 40  # nothing dropped
            service.check_books()
            stats = service.stats()
            assert stats["submitted"] == 40
            assert stats["admitted"] + stats["rejected"] == 40
            assert stats["completed"] == stats["admitted"]

        asyncio.run(run_service(
            scenario, shards=1, queue_depth=4, high_water=2, max_batch=4,
        ))

    def test_flood_responses_match_serial(self):
        """Responses under batching pressure stay byte-identical."""

        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            pairs = [
                seeded_operands(session.key, level, seed=100 + i)
                for i in range(24)
            ]
            responses = await asyncio.gather(*[
                service.submit("t", 0, a, b) for a, b in pairs
            ])
            assert all(r.ok for r in responses)
            assert max(r.batch_size for r in responses) > 1, (
                "flood never produced a coalesced batch"
            )
            for (a, b), response in zip(pairs, responses):
                want = sbatch.execute_serial(sbatch.OpRequest(
                    tenant="t", key=session.key, op="mul",
                    level=level, a=a, b=b,
                ))
                assert response.result.tobytes() == want.tobytes()
            service.check_books()

        asyncio.run(run_service(
            scenario, shards=1, queue_depth=64, max_batch=8,
        ))


class TestFailureModel:
    def test_deadline_expires_as_504(self, monkeypatch):
        """A straggling group burns the request's deadline: 504, books
        count it as failed/expired, nothing hangs."""
        stall_groups(monkeypatch, 0.05)

        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            a, b = seeded_operands(session.key, level, seed=5)
            response = await service.submit("t", 0, a, b, deadline_s=0.001)
            assert response.status == "error"
            assert response.code == 504
            assert service.expired == 1 and service.failed == 1
            service.check_books()

        asyncio.run(run_service(scenario, shards=1))

    def test_dispatch_failure_settles_group_as_500(self, monkeypatch):
        """A dispatch that raises fails its whole group with 500s; the
        worker carries on and the next request is served exactly."""
        real = sbatch.execute_group
        sizes = []

        def raises_once(group):
            sizes.append(len(group))
            if len(sizes) == 1:
                raise RuntimeError("kernel fell over")
            return real(group)

        monkeypatch.setattr(sbatch, "execute_group", raises_once)

        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            pairs = [
                seeded_operands(session.key, level, seed=20 + i)
                for i in range(4)
            ]
            responses = await asyncio.gather(*[
                service.submit("t", 0, a, b) for a, b in pairs
            ])
            assert sizes == [4], "the four requests did not share a group"
            for response in responses:
                assert (response.status, response.code) == ("error", 500)
                assert "RuntimeError: kernel fell over" in response.reason
            assert service.failed == 4 and service.completed == 0
            assert service.stats()["tenants"]["t"]["inflight"] == 0
            service.check_books()

            a, b = seeded_operands(session.key, level, seed=30)
            after = await service.submit("t", 0, a, b)
            assert after.ok and after.code == 200
            want = sbatch.execute_serial(sbatch.OpRequest(
                tenant="t", key=session.key, op="mul", level=level, a=a, b=b,
            ))
            assert after.result.tobytes() == want.tobytes()
            assert service.completed == 1
            service.check_books()

        asyncio.run(run_service(scenario, shards=1, max_batch=8))


class TestStop:
    """``stop()`` with work queued or in flight.  Every await is
    bounded, so a submitter stranded on a future that never resolves
    fails fast instead of hanging the suite."""

    def fill(self, service, count=6, seed0=80):
        session = service.register("t", trace=serve_trace())
        level = session.trace.ops[0].level
        pairs = [
            seeded_operands(session.key, level, seed=seed0 + i)
            for i in range(count)
        ]
        return [
            asyncio.ensure_future(service.submit("t", 0, a, b))
            for a, b in pairs
        ]

    def test_drain_completes_queued_work(self):
        async def scenario():
            service = BitPackerServe(shards=1, queue_depth=32, max_batch=4)
            await service.start()
            tasks = self.fill(service)
            await asyncio.sleep(0)  # admissions enqueue, workers start
            drained = await service.stop(drain=True)
            assert drained is True
            responses = await asyncio.wait_for(asyncio.gather(*tasks), 5)
            assert all(r.ok for r in responses)
            assert service.completed == 6 and service.cancelled == 0
            service.check_books()
            with pytest.raises(ParameterError, match="not running"):
                await service.submit("t", 0, None, None)

        asyncio.run(scenario())

    def test_non_drain_settles_everything_as_503(self, monkeypatch):
        stall_groups(monkeypatch, 0.05)

        async def scenario():
            service = BitPackerServe(shards=1, queue_depth=32, max_batch=1)
            await service.start()
            tasks = self.fill(service)
            await asyncio.sleep(0)
            await service.stop(drain=False)
            responses = await asyncio.wait_for(asyncio.gather(*tasks), 5)
            assert len(responses) == 6, "a submitter was stranded"
            for response in responses:
                assert response.status in ("ok", "error")
                if response.status == "error":
                    assert response.code == 503
                    assert "stopped" in response.reason
            assert service.cancelled == service.failed > 0
            assert service.completed + service.failed == 6
            service.check_books()

        asyncio.run(scenario())

    def test_drain_timeout_falls_back_to_settling(self, monkeypatch):
        """A drain that cannot finish in time still resolves every
        future — ``drained=False`` reports the truncation."""
        stall_groups(monkeypatch, 0.2)

        async def scenario():
            service = BitPackerServe(shards=1, queue_depth=32, max_batch=1)
            await service.start()
            tasks = self.fill(service)
            await asyncio.sleep(0)
            drained = await service.stop(drain=True, drain_timeout_s=0.01)
            assert drained is False
            responses = await asyncio.wait_for(asyncio.gather(*tasks), 5)
            assert len(responses) == 6
            assert service.completed + service.failed == 6
            service.check_books()

        asyncio.run(scenario())

    def test_health_reflects_lifecycle(self):
        async def scenario():
            service = BitPackerServe(shards=2)
            assert service.health()["running"] is False
            await service.start()
            health = service.health()
            assert health["running"] is True and health["ready"] is True
            assert [s["shard"] for s in health["shards"]] == [0, 1]
            assert all(s["queued"] == 0 for s in health["shards"])
            await service.stop()
            after = service.health()
            assert after["running"] is False and after["ready"] is False

        asyncio.run(scenario())


class TestVerifyGate:
    def test_gate_memoizes_by_content(self, monkeypatch):
        calls = []
        real = sservice.verify_or_raise
        monkeypatch.setattr(
            sservice, "verify_or_raise",
            lambda trace: calls.append(1) or real(trace),
        )
        admit(serve_trace())
        admit(serve_trace())  # fresh object, same content
        assert len(calls) == 1

    def test_gate_failure_not_memoized(self):
        bad = violating_trace()
        with pytest.raises(ScheduleViolationError):
            admit(bad)
        with pytest.raises(ScheduleViolationError):
            admit(bad)

    def test_gate_single_flight_under_contention(self, monkeypatch):
        import threading

        entered = threading.Event()
        release = threading.Event()
        calls = []

        def slow_verify(trace):
            calls.append(1)
            entered.set()
            release.wait(timeout=5)

        monkeypatch.setattr(sservice, "verify_or_raise", slow_verify)
        trace = serve_trace()
        threads = [
            threading.Thread(
                target=admit, args=(trace,)
            )
            for _ in range(4)
        ]
        threads[0].start()
        assert entered.wait(timeout=5)
        for t in threads[1:]:
            t.start()
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert len(calls) == 1, "verify ran more than once for one trace"


class TestGateMemoLRU:
    def test_memo_is_bounded_and_lru(self, monkeypatch):
        monkeypatch.setattr(GATE, "limit", 3)
        traces = [serve_trace(levels=k) for k in range(1, 6)]
        for trace in traces[:3]:
            admit(trace)
        assert sservice.gate_memo_size() == 3
        # Touch the oldest so it survives the next eviction.
        admit(traces[0])
        admit(traces[3])
        assert sservice.gate_memo_size() == 3
        digests = GATE.digests()
        assert content_digest(traces[0]) in digests
        assert content_digest(traces[1]) not in digests, (
            "LRU evicted the recently-touched digest instead of the "
            "coldest one"
        )

    def test_stats_export_memo_size(self):
        async def scenario(service):
            service.register("t", trace=serve_trace())
            assert service.stats()["gate_memo_size"] == 1
            assert service.health()["gate_memo_size"] == 1

        asyncio.run(run_service(scenario))


class TestLoadgen:
    def test_schedule_and_operands_deterministic(self):
        spec = LoadSpec(seed=7, tenants=3, requests=50)
        executable = {tenant_name(r): (0, 2, 4) for r in range(3)}
        s1 = build_schedule(spec, executable)
        s2 = build_schedule(spec, executable)
        assert s1 == s2
        other = build_schedule(
            LoadSpec(seed=8, tenants=3, requests=50), executable
        )
        assert s1 != other
        key = KeyMaterial(KeyParams(n=64, word_bits=28, levels=2))
        a1, b1 = operands_for(spec, s1[0], key.moduli_at(2))
        a2, b2 = operands_for(spec, s2[0], key.moduli_at(2))
        assert a1.tobytes() == a2.tobytes()
        assert b1.tobytes() == b2.tobytes()

    def test_zipf_mix_skews_hot_tenants(self):
        spec = LoadSpec(seed=11, tenants=6, requests=300, zipf_s=1.2)
        executable = {tenant_name(r): (0,) for r in range(6)}
        schedule = build_schedule(spec, executable)
        counts = {}
        for arrival in schedule:
            counts[arrival.tenant] = counts.get(arrival.tenant, 0) + 1
        assert counts[tenant_name(0)] > counts.get(tenant_name(5), 0)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            LoadSpec(tenants=0)
        with pytest.raises(ParameterError):
            LoadSpec(requests=0)
        with pytest.raises(ParameterError):
            LoadSpec(zipf_s=0.0)


class TestEndToEnd:
    def test_scenario_no_corruption_books_balance(self):
        spec = LoadSpec(seed=5, tenants=4, requests=120)
        report = asyncio.run(run_scenario(
            spec, shards=2, queue_depth=32, max_batch=8,
        ))
        assert report.submitted == 120
        assert report.dropped == 0
        assert report.corrupted == 0
        assert report.failed == 0
        assert report.admitted == report.completed
        assert report.admitted + report.rejected == report.submitted
        stats = report.stats
        assert stats["submitted"] == 120
        assert stats["admitted"] == stats["completed"] + stats["failed"]
        per_tenant = stats["tenants"].values()
        assert sum(t["submitted"] for t in per_tenant) == 120

    def test_scenario_deterministic_accounting(self):
        spec = LoadSpec(seed=9, tenants=3, requests=60, burst=4)
        r1 = asyncio.run(run_scenario(spec, shards=1, queue_depth=128))
        GATE.clear()
        r2 = asyncio.run(run_scenario(spec, shards=1, queue_depth=128))
        # Same seed, unbounded queue: identical admission outcomes.
        assert r1.submitted == r2.submitted == 60
        assert (r1.completed, r1.rejected) == (r2.completed, r2.rejected)
        assert r1.corrupted == r2.corrupted == 0


class TestServeCli:
    """``repro serve``: the ordinary subcommand of ``repro.cli``."""

    def test_cli_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = cli_main([
            "serve", "--tenants", "3", "--requests", "60", "--seed", "13",
            "--json", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["submitted"] == 60
        assert doc["dropped"] == 0
        assert doc["corrupted"] == 0
        assert doc["admitted"] == doc["completed"] + doc["failed"]
        rendered = capsys.readouterr().out
        assert "repro serve load report" in rendered

    def test_cli_rejects_unknown_backend(self, capsys):
        """There is one kernel engine and no flag that names another."""
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["serve", "--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_quiet_prints_no_report(self, capsys):
        code = cli_main([
            "serve", "--tenants", "2", "--requests", "30", "--quiet",
        ])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_help_lists_serve_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["serve", "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        for flag in ("--tenants", "--requests", "--burst-gap",
                     "--queue-depth", "--high-water", "--request-timeout",
                     "--profile", "--json", "--quiet"):
            assert flag in usage

    def test_audit_flags_unbalanced_books(self):
        def report(**books):
            return LoadReport(spec=LoadSpec(), **books)

        clean = report(submitted=10, admitted=8, rejected=2, completed=8)
        assert clean.audit() == []
        unbalanced = report(submitted=10, admitted=8, rejected=1, completed=8)
        assert any("books" in p for p in unbalanced.audit())
        failed = report(
            submitted=10, admitted=9, rejected=1, failed=2, completed=7
        )
        assert any("failed" in p for p in failed.audit())

    def test_sigint_exits_130(self, monkeypatch, capsys):
        from repro.serve import loadgen

        async def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(loadgen, "run_scenario", interrupted)
        assert cli_main(["serve", "--requests", "10", "--quiet"]) == 130
        assert "interrupted" in capsys.readouterr().err
