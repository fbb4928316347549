"""The async multi-tenant serve layer: keys, batching, admission,
backpressure, the verify gate, the failure model (dispatch failure,
stop), and the service driven the way the benchmark ladder drives it.

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
import hashlib
import json
import random

import numpy as np
import pytest

import repro.backends as backends
from repro.analysis.absint import GATE
from repro.errors import ParameterError, ScheduleViolationError
from repro.serve import batch as sbatch
from repro.serve import service as sservice
from repro.serve.keys import KeyMaterial, KeyParams, KeyRegistry
from repro.serve.loadgen import LoadSpec, register_tenants, tenant_name
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

    def test_ladder_keys_are_pinned(self):
        """The ladder's tenants at n = 8192 keep their primes and
        fingerprints: batch keys, shards and the ladder's prefix-shared
        operand pool all follow them."""
        service = BitPackerServe(shards=2, queue_depth=64, max_batch=16)
        register_tenants(service, LoadSpec(tenants=6, n=8192))
        got = {}
        for rank in range(6):
            key = service.sessions[tenant_name(rank)].key
            digest = hashlib.sha256(json.dumps(key.primes).encode()).hexdigest()
            got[key.params.levels] = (key.fingerprint, digest[:16])
        assert got == {
            26: ("e08e75523bbabcc0", "36d1096ddc5513fe"),
            24: ("bbbca3e114f7801f", "df10d7da0c7b905f"),
            23: ("7ba67628d1138dd9", "282e92452b2cc624"),
        }
        with pytest.raises(ParameterError, match="not enough"):
            KeyMaterial(KeyParams(n=64, word_bits=8, levels=1))

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

    @pytest.mark.parametrize("op", ["mul", "add"])
    def test_group_results_own_their_bytes_at_the_ladder_shape(self, op):
        # serve_hot's shape: n = 8192, 27 rows, a group of 8.  Every
        # member's result is its own fresh array, shares memory with no
        # other result and no operand, and equals the serial call.
        key = KeyMaterial(KeyParams(n=8192, word_bits=28, levels=26))
        level, size = 26, 8
        rng = np.random.default_rng(8192)
        pool = rng.integers(
            0, key.q_col(level), size=(size, 2, level + 1, 8192),
            dtype=np.uint64,
        )
        group = [
            sbatch.OpRequest(tenant="t", key=key, op=op, level=level,
                             a=pool[i, 0], b=pool[i, 1])
            for i in range(size)
        ]
        results = sbatch.execute_group(group)
        assert len(results) == size
        for i, (request, got) in enumerate(zip(group, results)):
            assert got.base is None and got.flags.owndata
            assert not np.shares_memory(got, pool)
            for other in results[i + 1:]:
                assert not np.shares_memory(got, other)
            want = sbatch.execute_serial(request)
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
            scenario, shards=1, queue_depth=2, max_batch=4,
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
            await service.stop()
            responses = await asyncio.wait_for(asyncio.gather(*tasks), 5)
            assert all(r.ok for r in responses)
            assert service.completed == 6 and service.cancelled == 0
            service.check_books()
            with pytest.raises(ParameterError, match="not running"):
                await service.submit("t", 0, None, None)

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
        verified = []
        monkeypatch.setattr(sservice, "verify_or_raise", verified.append)
        traces = [serve_trace(levels=k) for k in range(1, 6)]
        for trace in traces[:3]:
            admit(trace)
        assert sservice.gate_memo_size() == 3
        # Touch the oldest so it survives the next eviction.
        admit(traces[0])
        admit(traces[3])
        assert sservice.gate_memo_size() == 3
        assert verified == traces[:4]
        admit(traces[0])
        assert verified == traces[:4], (
            "LRU evicted the recently-touched trace instead of the "
            "coldest one"
        )
        admit(traces[1])
        assert verified == traces[:4] + [traces[1]], "the coldest trace stayed"

    def test_stats_export_memo_size(self):
        async def scenario(service):
            service.register("t", trace=serve_trace())
            assert service.stats()["gate_memo_size"] == 1

        asyncio.run(run_service(scenario))




class TestLadderContract:
    """The serve surface ``benchmarks/ladder/serve.py`` and ``rungs.py``
    call, driven the way they drive it, at a small ring degree."""

    CLIENTS = 6
    REQUESTS_PER_CLIENT = 12
    STATS_KEYS = ("rejected", "shed", "failed", "retried", "batches",
                  "batched_requests", "max_batch_seen")

    def test_ladder_calls_answer_exactly(self):
        n = 64
        rng = random.Random(47)

        async def scenario():
            service = BitPackerServe(shards=2, queue_depth=512, max_batch=16)
            await service.start()
            spec = LoadSpec(tenants=4, n=n)
            register_tenants(service, spec)
            sessions = [
                service.sessions[tenant_name(rank)]
                for rank in range(spec.tenants)
            ]
            # One full-height operand pool against the longest key;
            # every request takes the row prefix for its level.
            longest = max((s.key for s in sessions), key=lambda k: len(k.primes))
            for session in sessions:
                assert session.key.primes == longest.primes[
                    : len(session.key.primes)]
            pool_rng = np.random.default_rng(47)
            pool = [
                tuple(
                    np.stack([pool_rng.integers(0, q, n, dtype=np.uint64)
                              for q in longest.primes])
                    for _ in range(2)
                )
                for _ in range(4)
            ]
            # Half the traffic on the first tenant's top-level keys, so
            # requests coalesce; the rest spread over every tenant.
            hot = sessions[0]
            top = max(hot.op_for(i).level for i in hot.executable)
            hot_ops = [i for i in hot.executable if hot.op_for(i).level == top]
            answers = []

            async def client():
                for _ in range(self.REQUESTS_PER_CLIENT):
                    if rng.random() < 0.5:
                        session, index = hot, rng.choice(hot_ops)
                    else:
                        session = rng.choice(sessions)
                        index = rng.choice(session.executable)
                    level = session.op_for(index).level
                    a, b = pool[rng.randrange(len(pool))]
                    a, b = a[: level + 1], b[: level + 1]
                    response = await service.submit(session.tenant, index, a, b)
                    answers.append((session, index, a, b, response))

            await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
            stats = service.stats()
            await service.stop()
            service.check_books()
            return sessions, answers, stats

        sessions, answers, stats = asyncio.run(scenario())
        assert len(answers) == self.CLIENTS * self.REQUESTS_PER_CLIENT
        for session, index, a, b, response in answers:
            assert response.ok, response.reason
            op = session.op_for(index)
            want = sbatch.execute_serial(sbatch.OpRequest(
                tenant=session.tenant, key=session.key,
                op=sbatch.EXECUTABLE_KINDS[op.kind], level=op.level, a=a, b=b,
            ))
            assert response.result.tobytes() == want.tobytes()
        for key in self.STATS_KEYS:
            assert key in stats
        assert stats["rejected"] == stats["failed"] == 0
        assert stats["shed"] == stats["retried"] == 0
        assert stats["batched_requests"] == len(answers)
        assert 1 < stats["max_batch_seen"] <= 16
        assert stats["batches"] < len(answers)

        # ``rungs.serve_rungs``: one top-level mul, serially and grouped.
        hot = sessions[0]
        index = next(
            i for i in hot.executable
            if sbatch.EXECUTABLE_KINDS[hot.op_for(i).kind] == "mul"
        )
        level = hot.op_for(index).level
        group = [
            make_request(hot.key, level, "mul", seed=seed, tenant=hot.tenant)
            for seed in range(3)
        ]
        for request, got in zip(group, sbatch.execute_group(group)):
            assert got.tobytes() == sbatch.execute_serial(request).tobytes()
