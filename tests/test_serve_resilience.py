"""Serve-layer resilience: deadlines, retries, breakers, drain, chaos.

The contract under test (DESIGN.md Sec. 13): an injected fault may cost
latency — retries, backoff, a 504, a 503 — but never correctness.  Every
``ok`` response stays byte-identical to serial execution, a poison
request is quarantined instead of failing its batch peers, a stopped
service never strands a submitter on an unresolved future, and the
extended books balance after every scenario::

    submitted == admitted + rejected + shed
    admitted  == completed + failed + quarantined (+ still queued)
"""

from __future__ import annotations

import asyncio
import types

import pytest

from repro.analysis.absint import GATE
from repro.errors import ParameterError
from repro.serve import batch as sbatch
from repro.serve import faults
from repro.serve import service as sservice
from repro.serve.loadgen import LoadSpec, run_scenario
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
    backoff_delay,
    remaining,
)
from repro.serve.service import BitPackerServe
from repro.trace.program import content_digest
from tests.test_serve import admit, seeded_operands, serve_trace


@pytest.fixture(autouse=True)
def _fresh_gate():
    GATE.clear()
    yield
    GATE.clear()


async def run_service(coro_fn, **kwargs):
    async with BitPackerServe(**kwargs) as service:
        return await coro_fn(service)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(retries=3, backoff=0.1, backoff_cap=5.0)
        for failure in (1, 2, 3):
            base = min(5.0, 0.1 * 2.0 ** (failure - 1))
            delay = policy.delay_for(7, failure)
            assert delay == policy.delay_for(7, failure)  # jitter is seeded
            assert 0.5 * base <= delay < 1.5 * base
        assert RetryPolicy(backoff=0.0).delay_for(7, 1) == 0.0

    def test_backoff_delay_is_bounded_and_deterministic(self):
        """The curve itself, with the values it produced in its old home
        (``repro.eval.runner``): the move changed no delay."""
        for failure in (1, 2, 3, 9):
            base = min(5.0, 0.1 * 2.0 ** (failure - 1))
            delay = backoff_delay(0.1, 5.0, "backoff", 7, failure)
            assert delay == backoff_delay(0.1, 5.0, "backoff", 7, failure)
            assert 0.5 * base <= delay < 1.5 * base
        assert backoff_delay(0.0, 5.0, "backoff", 7, 1) == 0.0
        assert backoff_delay(0.1, 5.0, "backoff", 7, 1) == 0.13282976429909468
        assert backoff_delay(0.01, 0.25, "serve-backoff", 3, 2) == (
            0.026608516024425627
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(retries=-1)
        with pytest.raises(ParameterError):
            RetryPolicy(backoff=-0.1)

    def test_remaining(self):
        assert remaining(None) == float("inf")
        assert remaining(10.0, now=4.0) == 6.0
        assert remaining(4.0, now=10.0) == -6.0


class TestCircuitBreaker:
    """The state machine, driven by an injected clock (no sleeps)."""

    def make(self, **policy):
        clock = [0.0]
        breaker = CircuitBreaker(
            BreakerPolicy(**policy), clock=lambda: clock[0]
        )
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opens == 1 and breaker.shed == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probes_are_metered_then_close_on_success(self):
        breaker, clock = self.make(
            failure_threshold=1, cooldown_s=1.0, half_open_probes=1
        )
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()
        clock[0] = 1.5  # cooldown elapsed: next admission is the probe
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(), "second probe must be shed"
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self.make(failure_threshold=1, cooldown_s=1.0)
        breaker.record_failure()
        clock[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and breaker.opens == 2
        clock[0] = 2.0  # only 0.5s into the new cooldown
        assert not breaker.allow()

    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ParameterError):
            BreakerPolicy(cooldown_s=-1.0)
        with pytest.raises(ParameterError):
            BreakerPolicy(half_open_probes=0)


class TestRetriesAndQuarantine:
    def test_transient_fault_is_retried_to_success(self):
        """A one-off kernel raise costs a retry, never the response."""

        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            a, b = seeded_operands(session.key, level, seed=3)
            with faults.injected("serve.kernel:raise@0"):
                response = await service.submit("t", 0, a, b)
            assert response.ok and response.code == 200
            want = sbatch.execute_serial(sbatch.OpRequest(
                tenant="t", key=session.key, op="mul", level=level, a=a, b=b,
            ))
            assert response.result.tobytes() == want.tobytes()
            assert service.retried == 1
            assert service.quarantined == 0
            service.check_books()

        asyncio.run(run_service(
            scenario, shards=1, retry=RetryPolicy(retries=2, backoff=0.0),
        ))

    def test_poison_is_quarantined_peers_complete_byte_identical(self):
        """Split-and-retry isolates the poison; its batch peers are not
        failed by association and stay byte-identical to serial."""

        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            pairs = [
                seeded_operands(session.key, level, seed=40 + i)
                for i in range(8)
            ]
            with faults.injected("serve.request:poison@2"):
                responses = await asyncio.gather(*[
                    service.submit("t", 0, a, b) for a, b in pairs
                ])
            statuses = [r.status for r in responses]
            assert statuses[2] == "quarantined"
            assert responses[2].code == 422
            assert "FaultInjected" in responses[2].reason or (
                "PoisonedRequest" in responses[2].reason
            )
            assert statuses.count("ok") == 7
            for index, ((a, b), response) in enumerate(zip(pairs, responses)):
                if index == 2:
                    continue
                want = sbatch.execute_serial(sbatch.OpRequest(
                    tenant="t", key=session.key, op="mul",
                    level=level, a=a, b=b,
                ))
                assert response.result.tobytes() == want.tobytes()
            assert service.quarantined == 1
            assert service.splits >= 1, "poison batch was never bisected"
            service.check_books()
            stats = service.stats()
            assert stats["tenants"]["t"]["quarantined"] == 1
            assert stats["tenants"]["t"]["inflight"] == 0

        asyncio.run(run_service(
            scenario, shards=1, max_batch=8,
            retry=RetryPolicy(retries=1, backoff=0.0),
        ))

    def test_deadline_expires_as_504(self):
        """A stalled queue burns the request's deadline: 504, books
        count it as failed/expired, nothing hangs."""

        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            a, b = seeded_operands(session.key, level, seed=5)
            with faults.injected("serve.queue:stall%1.0;stall=0.05"):
                response = await service.submit(
                    "t", 0, a, b, deadline_s=0.001
                )
            assert response.status == "error"
            assert response.code == 504
            assert service.expired == 1 and service.failed == 1
            service.check_books()

        asyncio.run(run_service(scenario, shards=1))

    def test_retry_that_cannot_meet_deadline_expires_instead(self):
        """Backoff sleeps the submitter can no longer afford are not
        burned: the request expires rather than retrying past its
        deadline."""

        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            a, b = seeded_operands(session.key, level, seed=6)
            # Every dispatch raises; the backoff (>= 0.5 * 10s) always
            # exceeds the 50ms deadline, so the first failure expires.
            with faults.injected("serve.kernel:raise%1.0"):
                response = await service.submit(
                    "t", 0, a, b, deadline_s=0.05
                )
            assert response.code == 504
            assert service.expired == 1
            assert service.retried == 0
            service.check_books()

        asyncio.run(run_service(
            scenario, shards=1, retry=RetryPolicy(retries=3, backoff=10.0),
        ))


class TestBreakerInService:
    def test_breaker_opens_sheds_and_recovers_end_to_end(self):
        async def scenario(service):
            session = service.register("t", trace=serve_trace())
            level = session.trace.ops[0].level
            a, b = seeded_operands(session.key, level, seed=7)
            with faults.injected("serve.kernel:raise@0,1"):
                first = await service.submit("t", 0, a, b)
                second = await service.submit("t", 0, a, b)
                assert first.status == second.status == "quarantined"
                # Two consecutive dispatch failures: breaker open.
                shed = await service.submit("t", 0, a, b)
                assert (shed.status, shed.code) == ("shed", 503)
                assert "circuit breaker" in shed.reason
                health = service.health()
                assert health["ready"] is False
                assert health["shards"][0]["state"] == OPEN
                await asyncio.sleep(0.06)  # past the cooldown
                probe = await service.submit("t", 0, a, b)
                assert probe.ok, "half-open probe should have succeeded"
            after = await service.submit("t", 0, a, b)
            assert after.ok
            stats = service.stats()
            assert stats["shed"] == 1
            assert stats["breakers"][0]["state"] == CLOSED
            assert stats["breakers"][0]["opens"] == 1
            assert service.health()["ready"] is True
            service.check_books()

        asyncio.run(run_service(
            scenario, shards=1, retry=RetryPolicy(retries=0),
            breaker=BreakerPolicy(failure_threshold=2, cooldown_s=0.05),
        ))

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


class TestStop:
    """Satellite (c): stop() with batches in flight.

    The regression bar: pre-resilience ``stop()`` cancelled the workers
    without settling queued requests, stranding submitters on futures
    that never resolve — these tests bound every await, so that bug
    fails fast instead of hanging the suite.
    """

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

    def test_non_drain_settles_everything_as_503(self):
        async def scenario():
            service = BitPackerServe(shards=1, queue_depth=32, max_batch=1)
            await service.start()
            with faults.injected("serve.queue:stall%1.0;stall=0.05"):
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

    def test_drain_timeout_falls_back_to_settling(self):
        """A drain that cannot finish in time still resolves every
        future — ``drained=False`` reports the truncation."""

        async def scenario():
            service = BitPackerServe(shards=1, queue_depth=32, max_batch=1)
            await service.start()
            with faults.injected("serve.queue:stall%1.0;stall=0.2"):
                tasks = self.fill(service)
                await asyncio.sleep(0)
                drained = await service.stop(
                    drain=True, drain_timeout_s=0.01
                )
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
            assert all(s["state"] == CLOSED for s in health["shards"])
            await service.stop()
            after = service.health()
            assert after["running"] is False and after["ready"] is False

        asyncio.run(scenario())


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


class TestChaosEndToEnd:
    def test_loadgen_under_chaos_is_uncorrupted_and_balanced(self):
        """The acceptance scenario: seeded load under kernel raises,
        slow dispatches, a queue stall and one poison request — zero
        corruption, poison quarantined, extended books balance, and a
        p99 that degrades gracefully against a clean run of the same
        load."""
        spec = LoadSpec(
            seed=21, tenants=4, requests=80, burst=8, deadline_s=30.0,
        )
        chaos = (
            "serve.kernel:raise%0.05;serve.kernel:slow%0.05;"
            "serve.queue:stall%0.1;serve.request:poison@7;"
            "slow=0.002;stall=0.002;seed=21"
        )

        def run():
            return asyncio.run(run_scenario(
                spec, shards=2, queue_depth=256, max_batch=8,
                retry=RetryPolicy(retries=2, backoff=0.002),
            ))

        clean = run()
        with faults.injected(chaos):
            report = run()
        assert report.dropped == 0
        assert report.corrupted == 0, (
            "a fault corrupted a response: resilience must cost latency, "
            "never bytes"
        )
        assert report.quarantined >= 1, "the poison was never quarantined"
        assert report.submitted == (
            report.admitted + report.rejected + report.shed
        )
        assert report.admitted == (
            report.completed + report.failed + report.quarantined
        )
        assert report.stats["retried"] > 0
        bound = 50 * clean.latency_percentile(99) + 0.5
        assert report.latency_percentile(99) <= bound, (
            "degradation under chaos is a cliff, not graceful"
        )

    def test_chaos_accounting_is_deterministic(self):
        spec = LoadSpec(seed=33, tenants=3, requests=60, deadline_s=30.0)
        chaos = "serve.kernel:raise%0.1;serve.request:poison@5;seed=33"
        outcomes = []
        for _ in range(2):
            GATE.clear()
            with faults.injected(chaos):
                report = asyncio.run(run_scenario(
                    spec, shards=1, queue_depth=256,
                    retry=RetryPolicy(retries=2, backoff=0.0),
                ))
            outcomes.append((
                report.completed, report.quarantined, report.corrupted,
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == 0


class TestCliResilience:
    def test_cli_chaos_run_exits_clean(self, tmp_path, capsys):
        from repro.serve.cli import main

        out = tmp_path / "chaos.json"
        code = main([
            "--tenants", "3", "--requests", "60", "--seed", "17",
            "--faults", "serve.kernel:raise@1;serve.request:poison@4",
            "--retries", "2", "--retry-backoff", "0.001",
            "--json", str(out),
        ])
        assert code == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["corrupted"] == 0 and doc["dropped"] == 0
        assert doc["quarantined"] == 1
        assert doc["submitted"] == (
            doc["admitted"] + doc["rejected"] + doc["shed"]
        )
        tenants = doc["service"]["tenants"]
        assert sum(t["quarantined"] for t in tenants.values()) == 1
        rendered = capsys.readouterr().out
        assert "quarantined 1" in rendered
        assert "resilience:" in rendered

    def test_audit_flags_unbalanced_books_and_spares_quarantine(self):
        from repro.serve.cli import audit_report

        clean = types.SimpleNamespace(
            submitted=10, admitted=8, rejected=1, shed=1, dropped=0,
            corrupted=0, failed=0, completed=7, quarantined=1,
        )
        assert audit_report(clean) == []
        unbalanced = types.SimpleNamespace(
            submitted=10, admitted=8, rejected=1, shed=0, dropped=0,
            corrupted=0, failed=0, completed=8, quarantined=0,
        )
        assert any("books" in p for p in audit_report(unbalanced))
        failed = types.SimpleNamespace(
            submitted=10, admitted=9, rejected=1, shed=0, dropped=0,
            corrupted=0, failed=2, completed=7, quarantined=0,
        )
        assert any("failed" in p for p in audit_report(failed))

    def test_sigint_exits_130(self, monkeypatch, capsys):
        from repro.serve import cli

        async def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_scenario", interrupted)
        assert cli.main(["--requests", "10", "--quiet"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_unknown_fault_site_exits_2(self, capsys):
        from repro.serve.cli import main

        assert main(["--faults", "serve.oven:raise@1"]) == 2
        assert "serve.oven" in capsys.readouterr().err
