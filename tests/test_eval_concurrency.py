"""Concurrency safety of the schedule-verify gate (PR-8 bugfix).

The memoized gate had a check-then-act race: two sessions missing the
memo at once both ran the (expensive) full verification, and the
unsynchronized dict/clear could lose entries.  (The memo is now
:data:`repro.analysis.absint.GATE`, shared with serve; these tests
drive it the way ``eval.common`` does.)
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.absint import GATE
from repro.eval import common as eval_common
from repro.trace.program import HeTrace, OpKind, TraceOp


@pytest.fixture(autouse=True)
def _fresh_gate():
    GATE.clear()
    yield
    GATE.clear()


def verify_schedule(trace):
    """The eval pre-flight gate call, as ``_simulate`` makes it."""
    GATE.admit(trace, eval_common.verify_or_raise)


def clean_trace():
    return HeTrace(
        name="gate-fixture", n=64, base_bits=60.0,
        level_scale_bits=(30.0, 30.0, 30.0),
        ops=[
            TraceOp(OpKind.HMUL, 2),
            TraceOp(OpKind.RESCALE, 2),
            TraceOp(OpKind.HADD, 1),
        ],
    )


class TestVerifyGateSingleFlight:
    def test_concurrent_misses_verify_once(self, monkeypatch):
        """Satellite 3's regression: one verification per trace object.

        The first thread to miss the memo owns the verification; late
        arrivals wait on its in-flight event instead of re-running the
        verifier.  The underlying ``verify_or_raise`` is slowed and
        counted: with four threads racing one unverified trace it must
        run exactly once.
        """
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def slow_verify(trace):
            calls.append(threading.get_ident())
            entered.set()
            release.wait(timeout=5)

        monkeypatch.setattr(eval_common, "verify_or_raise", slow_verify)
        trace = clean_trace()
        threads = [
            threading.Thread(
                target=verify_schedule, args=(trace,)
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
        assert len(calls) == 1, (
            f"verify_or_raise ran {len(calls)} times for one trace"
        )
        # And the memo now short-circuits entirely.
        verify_schedule(trace)
        assert len(calls) == 1

    def test_owner_failure_releases_waiters(self, monkeypatch):
        """A failed owner must not wedge waiters: they retry themselves."""
        calls = []
        real = eval_common.verify_or_raise

        def flaky_verify(trace):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient verifier crash")
            return real(trace)

        monkeypatch.setattr(eval_common, "verify_or_raise", flaky_verify)
        trace = clean_trace()
        with pytest.raises(RuntimeError):
            verify_schedule(trace)
        # The in-flight table must be clean; the next caller retries.
        verify_schedule(trace)
        assert len(calls) == 2

    def test_memoization_by_content(self, monkeypatch):
        """A rebuilt trace with the same content hits; a rewrite misses."""
        calls = []
        real = eval_common.verify_or_raise
        monkeypatch.setattr(
            eval_common, "verify_or_raise",
            lambda trace: calls.append(1) or real(trace),
        )
        verify_schedule(clean_trace())
        verify_schedule(clean_trace())  # fresh object, same content
        assert len(calls) == 1
        rewritten = clean_trace().extended([TraceOp(OpKind.HADD, 1)])
        verify_schedule(rewritten)
        assert len(calls) == 2
