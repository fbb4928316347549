"""Static/runtime cross-check: replayed traces land inside the
verifier's abstract intervals, plus the sanitize op-log plumbing."""

import pytest

from repro.analysis import sanitize
from repro.analysis.absint import check_observations, verify_or_raise
from repro.obs import core
from repro.trace import TraceExecutor
from repro.trace.program import HeTrace, OpKind, TraceOp
from tests.conftest import TEST_LEVELS, TEST_N, TEST_SCALE_BITS


def _fixture_trace() -> HeTrace:
    """A small schedule exercising all seven op kinds, including a
    bootstrap re-entry at the top level after the chain runs dry."""
    top = TEST_LEVELS
    ops = [
        TraceOp(OpKind.HADD, top),
        TraceOp(OpKind.HROT, top),
        TraceOp(OpKind.HMUL, top),
        TraceOp(OpKind.RESCALE, top),
        TraceOp(OpKind.PADD, top - 1),
        TraceOp(OpKind.PMUL, top - 1),
        TraceOp(OpKind.RESCALE, top - 1),
        TraceOp(OpKind.ADJUST, top - 2, dst_level=top - 3),
        TraceOp(OpKind.HMUL, top, count=2),  # bootstrap back to the top
        TraceOp(OpKind.RESCALE, top),
        TraceOp(OpKind.HADD, top - 1, count=0),  # empty op: skipped
    ]
    return HeTrace(
        name="cross-check",
        n=TEST_N,
        base_bits=40.0,
        level_scale_bits=tuple(TEST_SCALE_BITS for _ in range(top + 1)),
        ops=ops,
    )


class TestCrossCheck:
    def test_trace_verifies_clean_statically(self):
        assert verify_or_raise(_fixture_trace()).ok

    def test_observed_levels_and_scales_inside_abstract_bounds(self, ctx):
        # The acceptance check: under sanitized execution, every
        # concrete (level, scale) the evaluator produces must fall in
        # the interval the abstract interpreter predicted for that op.
        trace = _fixture_trace()
        result = verify_or_raise(trace)
        observed = TraceExecutor(ctx).run(trace)
        assert check_observations(result, observed) == []

    def test_one_observation_per_nonempty_op(self, bp_ctx):
        trace = _fixture_trace()
        observed = TraceExecutor(bp_ctx).run(trace)
        live = [i for i, op in enumerate(trace.ops) if op.count > 0]
        assert [index for index, _ in observed] == live

    def test_rescale_consumes_the_recorded_product(self, bp_ctx):
        # The HMUL result (double scale) must be what RESCALE divides
        # down, or the observed rescale scale would sit near zero bits.
        trace = HeTrace(
            name="product-flow",
            n=TEST_N,
            base_bits=40.0,
            level_scale_bits=(TEST_SCALE_BITS,) * (TEST_LEVELS + 1),
            ops=[
                TraceOp(OpKind.HMUL, TEST_LEVELS),
                TraceOp(OpKind.RESCALE, TEST_LEVELS),
            ],
        )
        observed = TraceExecutor(bp_ctx).run(trace)
        assert observed[0][1].scale_bits == pytest.approx(
            2 * TEST_SCALE_BITS, abs=3.0
        )
        assert observed[1][1].scale_bits == pytest.approx(
            TEST_SCALE_BITS, abs=3.0
        )
        assert observed[1][1].level == TEST_LEVELS - 1

    def test_executor_caches_canonical_ciphertexts(self, bp_ctx):
        executor = TraceExecutor(bp_ctx)
        first = executor._canonical(TEST_LEVELS)
        assert executor._canonical(TEST_LEVELS) is first


class TestOpLog:
    def test_observe_op_is_inert_outside_record_ops(self, bp_ctx):
        # REPRO_SANITIZE=1 alone must not grow the log: recording is a
        # separate switch so long CI runs stay bounded.
        ct = bp_ctx.encrypt((0.5,), level=1)
        was_attached = core.checker() is sanitize
        try:
            sanitize.enable()
            before = len(sanitize._OP_LOG)
            sanitize.observe_op("hadd", ct)
            bp_ctx.evaluator.add(ct, ct)
            assert len(sanitize._OP_LOG) == before
        finally:
            if not was_attached:
                sanitize.disable()

    def test_record_ops_scopes_and_restores_flags(self, bp_ctx):
        saved_attached, saved_recording = core.checker() is sanitize, sanitize.RECORDING
        ct = bp_ctx.encrypt((0.5,), level=1)
        with sanitize.record_ops() as log:
            assert core.checker() is sanitize and sanitize.RECORDING
            sanitize.observe_op("hadd", ct)
            assert len(log) == 1
            obs = log[0]
        assert (core.checker() is sanitize) == saved_attached
        assert sanitize.RECORDING == saved_recording
        assert obs.kind == "hadd"
        assert obs.level == 1
        assert obs.scale_bits == pytest.approx(TEST_SCALE_BITS, abs=3.0)
