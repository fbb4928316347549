"""Fault-injection suite: the spec grammar, the hooks, and the cache's
quarantine path under injected write faults.

Every fault is driven through :mod:`repro.eval.faults` on a fixed
schedule, so the failures are deterministic and the assertions exact.
The ``result`` site is exercised through the CLI in ``test_cli.py``; the
``serve.*`` sites end to end in ``test_serve_resilience.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ParameterError
from repro.eval import common, faults, runner


def _cached_square(x):
    """A grid task that persists through the disk cache (like simulate)."""
    return runner.cached("faults-square", {"x": x}, compute=lambda: x * x)


CALLS = [dict(x=i) for i in range(8)]


@pytest.fixture()
def fresh_cache(tmp_path):
    """A private cache dir; restores the session cache afterwards."""
    previous = runner.active_cache()
    cache = runner.configure(cache_dir=tmp_path / "cache", enabled=True)
    common.clear_memory_caches()
    yield cache
    runner._ACTIVE = previous
    common.clear_memory_caches()


class TestSpecParsing:
    def test_schedule_clause(self):
        plan = faults.parse("store:truncate@2,5;seed=7")
        assert plan.seed == 7
        assert plan.decide("store", 2) == "truncate"
        assert plan.decide("store", 5) == "truncate"
        assert plan.decide("store", 3) is None

    def test_probability_clause_is_deterministic(self):
        plan = faults.parse("store:corrupt%0.5;seed=11")
        fired = [i for i in range(64) if plan.decide("store", i)]
        again = [i for i in range(64) if plan.decide("store", i)]
        assert fired == again
        assert 8 < len(fired) < 56  # roughly half, exactly reproducible
        # A different seed fires a different (still deterministic) set.
        other = faults.parse("store:corrupt%0.5;seed=12")
        assert fired != [i for i in range(64) if other.decide("store", i)]

    def test_store_modes(self):
        plan = faults.parse("store:truncate@0;store:corrupt@1")
        assert plan.decide("store", 0) == "truncate"
        assert plan.decide("store", 1) == "corrupt"
        assert plan.decide("store", 2) is None

    @pytest.mark.parametrize("spec", [
        "store",               # no mode
        "oven:raise@1",        # unknown site
        "result:corrupt@1",    # store-only mode on result site
        "store:kill@1",        # no site has this mode
        "result:raise@x",      # non-integer index
        "result:raise@0*",     # the every-attempt suffix left with retries
        "result:raise%1.5",    # probability out of range
        "seed=abc",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ParameterError):
            faults.parse(spec)

    def test_task_site_is_gone(self):
        """The grid map has no retry loop to exercise; the site that fed
        it is rejected by name, listing the sites that remain."""
        with pytest.raises(ParameterError, match=r"site in \["):
            faults.parse("task:raise@0")

    def test_inactive_hooks_are_noops(self):
        assert faults.active_plan() is None
        faults.fire_result()  # must not raise
        assert faults.mangle_record("{}") == "{}"

    def test_context_manager_restores(self):
        with faults.injected("store:corrupt@1") as plan:
            assert faults.active_plan() is plan
        assert faults.active_plan() is None


class TestServeSites:
    """The serve-layer fault sites ride the same spec grammar."""

    def test_serve_sites_parse_with_knobs(self):
        plan = faults.parse(
            "serve.kernel:raise@0;serve.kernel:slow@1;serve.queue:stall@0;"
            "serve.request:poison@2;slow=0.007;stall=0.03;hang=0.4"
        )
        assert plan.slow_seconds == 0.007
        assert plan.stall_seconds == 0.03
        assert plan.decide("serve.kernel", 0) == "raise"
        assert plan.decide("serve.kernel", 1) == "slow"
        assert plan.decide("serve.queue", 0) == "stall"
        assert plan.decide("serve.request", 2) == "poison"

    @pytest.mark.parametrize("spec", [
        "serve.kernel:stall@0",    # queue-only mode on kernel site
        "serve.queue:raise@0",     # kernel-only mode on queue site
        "serve.request:raise@0",   # poison is the only request mode
        "serve.oven:raise@0",      # unknown serve site
        "slow=abc",
        "stall=abc",
    ])
    def test_bad_serve_specs_rejected(self, spec):
        with pytest.raises(ParameterError):
            faults.parse(spec)

    def test_kernel_hook_consumes_indices_in_dispatch_order(self):
        spec = (
            "serve.kernel:raise@0;serve.kernel:slow@1;serve.kernel:hang@2;"
            "slow=0.005;hang=0.25"
        )
        with faults.injected(spec):
            assert faults.serve_kernel_fault() == ("raise", 0.0)
            assert faults.serve_kernel_fault() == ("slow", 0.005)
            assert faults.serve_kernel_fault() == ("hang", 0.25)
            assert faults.serve_kernel_fault() is None

    def test_queue_and_request_hooks(self):
        with faults.injected(
            "serve.queue:stall@1;serve.request:poison@1;stall=0.02"
        ):
            assert faults.serve_queue_stall() == 0.0
            assert faults.serve_queue_stall() == 0.02
            assert faults.serve_queue_stall() == 0.0
            assert faults.serve_request_poisoned() is False
            assert faults.serve_request_poisoned() is True
            assert faults.serve_request_poisoned() is False

    def test_inactive_serve_hooks_are_noops(self):
        assert faults.active_plan() is None
        assert faults.serve_kernel_fault() is None
        assert faults.serve_queue_stall() == 0.0
        assert faults.serve_request_poisoned() is False

    def test_poisoned_request_is_a_fault_injected(self):
        assert issubclass(faults.PoisonedRequest, faults.FaultInjected)


class TestRecordCorruption:
    def test_corrupted_store_is_quarantined_not_fatal(self, fresh_cache):
        """An injected write fault costs one recompute on the next load;
        the sweep (and parity with a clean run) is unaffected."""
        with faults.injected("store:truncate@0;store:corrupt@1"):
            fresh_cache.store("simulate", {"a": 1}, 111)
            fresh_cache.store("simulate", {"a": 2}, 222)
            fresh_cache.store("simulate", {"a": 3}, 333)
        assert fresh_cache.load("simulate", {"a": 1}) == (False, None)
        assert fresh_cache.load("simulate", {"a": 2}) == (False, None)
        assert fresh_cache.load("simulate", {"a": 3}) == (True, 333)
        assert fresh_cache.corrupt_count == 2
        quarantined = list(fresh_cache.quarantine_dir().iterdir())
        assert len(quarantined) == 2
        # Quarantined records are misses: the recompute repairs them.
        fresh_cache.store("simulate", {"a": 1}, 111)
        assert fresh_cache.load("simulate", {"a": 1}) == (True, 111)

    def test_faulted_sweep_matches_clean_run(self, fresh_cache):
        """A sweep whose record writes are truncated and corrupted
        renders byte-identically to a clean one — on the faulted run and
        on the re-run that has to read the mangled records back."""
        baseline = runner.map_grid(_cached_square, CALLS)
        faulted_cache = runner.configure(
            cache_dir=fresh_cache.cache_dir / "faulted"
        )
        with faults.injected("store:truncate@1;store:corrupt@4"):
            got = runner.map_grid(_cached_square, CALLS)
        assert json.dumps(got) == json.dumps(baseline)
        rerun = runner.map_grid(_cached_square, CALLS)
        assert json.dumps(rerun) == json.dumps(baseline)
        assert faulted_cache.corrupt_count == 2
        assert faulted_cache.hit_count("faults-square") == len(CALLS) - 2
