"""The async multi-tenant serve layer: keys, batching, admission,
backpressure, the verify gate, the load generator, and end-to-end runs.

The load-bearing invariant is **zero response corruption**: a coalesced
batch must be byte-identical to serial execution, and
mixed-level traffic must never coalesce at all.  Everything else
(backpressure, books, determinism) guards the service's accounting.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.backends as backends
from repro.analysis.absint import GATE
from repro.errors import ParameterError, ScheduleViolationError
from repro.serve import batch as sbatch
from repro.serve import service as sservice
from repro.serve.keys import KeyMaterial, KeyParams, KeyRegistry
from repro.serve.loadgen import (
    LoadSpec,
    build_schedule,
    operands_for,
    run_scenario,
    tenant_name,
)
from repro.serve.service import BitPackerServe
from repro.trace.program import HeTrace, OpKind, TraceOp

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
        key = KeyMaterial(KeyParams(n=64, word_bits=28, levels=3))
        group = [
            make_request(key, level=3, op=op, seed=seed) for seed in range(7)
        ]
        serial = [sbatch.execute_serial(r) for r in group]
        batched = sbatch.execute_group(group)
        assert len(batched) == len(serial)
        for got, want in zip(batched, serial):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

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
    def test_cli_end_to_end(self, tmp_path, capsys):
        from repro.serve.cli import main

        out = tmp_path / "serve.json"
        code = main([
            "--tenants", "3", "--requests", "60", "--seed", "13",
            "--json", str(out),
        ])
        assert code == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["submitted"] == 60
        assert doc["dropped"] == 0
        assert doc["corrupted"] == 0
        assert doc["admitted"] == doc["completed"] + doc["failed"]
        rendered = capsys.readouterr().out
        assert "bitpacker-serve load report" in rendered

    def test_cli_rejects_unknown_backend(self, capsys):
        """There is one kernel engine and no flag that names another."""
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_repro_cli_forwards_serve(self):
        from repro.cli import main as repro_main

        code = repro_main([
            "serve", "--tenants", "2", "--requests", "30", "--quiet",
        ])
        assert code == 0
