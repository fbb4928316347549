"""Fault-injection suite: the spec grammar and the hooks.

Every fault is driven through :mod:`repro.serve.faults` on a fixed
schedule, so the failures are deterministic and the assertions exact.
The ``serve.*`` sites run end to end in ``test_serve_resilience.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.serve import faults


class TestSpecParsing:
    def test_schedule_clause(self):
        plan = faults.parse("serve.kernel:raise@2,5;seed=7")
        assert plan.seed == 7
        assert plan.decide("serve.kernel", 2) == "raise"
        assert plan.decide("serve.kernel", 5) == "raise"
        assert plan.decide("serve.kernel", 3) is None

    def test_probability_clause_is_deterministic(self):
        plan = faults.parse("serve.queue:stall%0.5;seed=11")
        fired = [i for i in range(64) if plan.decide("serve.queue", i)]
        again = [i for i in range(64) if plan.decide("serve.queue", i)]
        assert fired == again
        assert 8 < len(fired) < 56  # roughly half, exactly reproducible
        # A different seed fires a different (still deterministic) set.
        other = faults.parse("serve.queue:stall%0.5;seed=12")
        assert fired != [
            i for i in range(64) if other.decide("serve.queue", i)
        ]

    @pytest.mark.parametrize("spec", [
        # The store and result sites went with the disk cache and the
        # figure writer's hook; they must stay rejected by name.
        "store",
        "store:kill@1",
        "result:corrupt@1",
        "result:raise@x",
        "result:raise@0*",
        "result:raise%1.5",
        "oven:raise@1",               # unknown site
        "serve.kernel",               # no mode
        "serve.kernel:raise@x",       # non-integer index
        "serve.kernel:raise@0*",      # the every-attempt suffix is gone
        "serve.kernel:raise%1.5",     # probability out of range
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
        """An empty ``BITPACKER_FAULTS`` installs no plan."""
        assert faults.configure("") is None
        assert faults.active_plan() is None
        assert faults.serve_kernel_fault() is None
        assert faults.serve_request_poisoned() is False

    def test_context_manager_restores(self):
        with faults.injected("serve.kernel:raise@1") as plan:
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
