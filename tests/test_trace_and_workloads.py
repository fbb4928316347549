"""Trace IR and workload-generator tests."""

import pytest

from repro.errors import ParameterError
from repro.trace.program import HeTrace, OpKind, TraceBuilder, TraceOp
from repro.workloads import (
    APP_SCALES,
    BENCHMARKS,
    BS19_SCHEDULE,
    BS26_SCHEDULE,
    app_levels_for,
)
from repro.workloads.walker import ProgramWalker, effective_scale_bits


class TestTraceIR:
    def test_builder_records_ops(self):
        b = TraceBuilder("x", n=1024, base_bits=40.0, level_scale_bits=(30.0,) * 3)
        b.hmul(2)
        b.rescale(2)
        b.hrot(1, count=5)
        trace = b.build()
        counts = trace.count_by_kind()
        assert counts[OpKind.HMUL] == 1
        assert counts[OpKind.HROT] == 5
        assert trace.total_ops == 7

    def test_zero_count_ops_dropped(self):
        b = TraceBuilder("x", n=1024, base_bits=40.0, level_scale_bits=(30.0,) * 2)
        b.hmul(1, count=0)
        assert b.build().total_ops == 0

    def test_adjust_requires_dst(self):
        with pytest.raises(ParameterError):
            TraceOp(OpKind.ADJUST, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            TraceOp(OpKind.HMUL, 1, count=-1)

    def test_validate_rejects_out_of_range_level(self):
        trace = HeTrace(
            name="bad", n=1024, base_bits=40.0, level_scale_bits=(30.0,) * 2,
            ops=[TraceOp(OpKind.HMUL, 5)],
        )
        with pytest.raises(ParameterError):
            trace.validate()

    def test_validate_rejects_rescale_at_zero(self):
        trace = HeTrace(
            name="bad", n=1024, base_bits=40.0, level_scale_bits=(30.0,) * 2,
            ops=[TraceOp(OpKind.RESCALE, 0)],
        )
        with pytest.raises(ParameterError):
            trace.validate()


class TestWalker:
    def _walker(self, **kw):
        args = dict(
            name="w", app_scale_bits=40.0, schedule=BS19_SCHEDULE,
            n=65536, max_log_q=1596.0,
        )
        args.update(kw)
        return ProgramWalker(**args)

    def test_bootstrap_inserted_when_exhausted(self):
        w = self._walker()
        start_level = w.level
        for _ in range(start_level + 1):
            w.ensure(1)
            w.ops(hmul=1)
            w.descend()
        assert w.bootstraps == 1

    def test_shared_bootstrap_block_equals_emitting_each_time(self):
        """The walker records the schedule's block once and appends the
        same frozen ops afterwards; the trace must equal, op for op, one
        built by calling ``schedule.emit`` at every bootstrap."""

        def program(w, bootstrap):
            for step in range(4 * (w.app_top + 1)):
                if w.level < 1:
                    bootstrap(w)
                w.ops(hmul=1, rot=step % 3, padd=0.5)
                w.adjust_from(2)
                w.descend()
            return w.build()

        def emit_each_time(w):
            w.level = w.schedule.emit(w.builder, w.max_level)
            w.bootstraps += 1

        for schedule in (BS19_SCHEDULE, BS26_SCHEDULE):
            shared = self._walker(schedule=schedule)
            trace = program(shared, ProgramWalker.bootstrap)
            plain = self._walker(schedule=schedule)
            assert trace.ops == program(plain, emit_each_time).ops
            assert shared.bootstraps == plain.bootstraps >= 3
            assert shared.level == plain.level
            top = [i for i, op in enumerate(trace.ops)
                   if op.level == trace.max_level and op.kind is OpKind.HROT]
            assert len(top) == shared.bootstraps
            assert trace.ops[top[0]] is trace.ops[top[1]]  # shared, not rebuilt

    def test_descend_below_zero_rejected(self):
        w = self._walker()
        w.level = 0
        with pytest.raises(ParameterError):
            w.descend()

    def test_step_too_deep_rejected(self):
        w = self._walker()
        with pytest.raises(ParameterError):
            w.ensure(w.app_top + 1)

    def test_effective_scale_identity_for_bitpacker(self):
        assert effective_scale_bits(30.0, "bitpacker", 65536, 28) == 30.0

    def test_effective_scale_inflates_for_rns_narrow(self):
        eff = effective_scale_bits(30.0, "rns-ckks", 65536, 28)
        assert eff > 35.0  # two minimum-size primes

    def test_rns_gets_fewer_app_levels(self):
        """Paper Sec. 5: RNS-CKKS's unreachable scales cost levels."""
        bp = app_levels_for(35.0, BS19_SCHEDULE, scheme="bitpacker",
                            word_bits=28)
        rns = app_levels_for(35.0, BS19_SCHEDULE, scheme="rns-ckks",
                             word_bits=28)
        assert rns < bp

    def test_wide_words_remove_the_gap(self):
        bp = app_levels_for(35.0, BS19_SCHEDULE, scheme="bitpacker",
                            word_bits=64)
        rns = app_levels_for(35.0, BS19_SCHEDULE, scheme="rns-ckks",
                             word_bits=64)
        assert rns == bp


class TestBootstrapSchedules:
    def test_depth(self):
        assert BS19_SCHEDULE.depth == 15
        assert BS26_SCHEDULE.depth == 15

    def test_scales_match_paper(self):
        assert set(BS19_SCHEDULE.level_scale_bits) == {52.0, 55.0, 30.0}
        assert set(BS26_SCHEDULE.level_scale_bits) == {54.0, 60.0, 40.0}

    def test_bs26_costs_more_modulus(self):
        assert BS26_SCHEDULE.modulus_bits > BS19_SCHEDULE.modulus_bits

    def test_emit_walks_down(self):
        b = TraceBuilder("boot", n=65536, base_bits=60.0,
                         level_scale_bits=(45.0,) * 10
                         + BS19_SCHEDULE.level_scale_bits[::-1])
        exit_level = BS19_SCHEDULE.emit(b, top_level=24)
        assert exit_level == 24 - BS19_SCHEDULE.depth
        trace_ops = b.build().ops
        rescales = [op for op in trace_ops if op.kind is OpKind.RESCALE]
        assert len(rescales) == BS19_SCHEDULE.depth


@pytest.mark.parametrize("app", list(BENCHMARKS))
@pytest.mark.parametrize("schedule", [BS19_SCHEDULE, BS26_SCHEDULE])
class TestBenchmarkTraces:
    def test_trace_valid(self, app, schedule):
        trace = BENCHMARKS[app](schedule)
        trace.validate()
        assert trace.total_ops > 100

    def test_contains_bootstrap_rotations(self, app, schedule):
        trace = BENCHMARKS[app](schedule)
        counts = trace.count_by_kind()
        assert counts.get(OpKind.HROT, 0) > 0
        assert counts.get(OpKind.RESCALE, 0) > 0

    def test_deterministic(self, app, schedule):
        a = BENCHMARKS[app](schedule)
        b = BENCHMARKS[app](schedule)
        assert a.ops == b.ops

    def test_scheme_changes_cadence_not_mix(self, app, schedule):
        bp = BENCHMARKS[app](schedule, scheme="bitpacker", word_bits=28)
        rns = BENCHMARKS[app](schedule, scheme="rns-ckks", word_bits=28)
        # Same op kinds; RNS never has *fewer* total ops (more bootstraps).
        assert set(bp.count_by_kind()) == set(rns.count_by_kind())
        assert rns.total_ops >= bp.total_ops


class TestAppScales:
    def test_paper_scales(self):
        assert APP_SCALES["ResNet-20"] == 45.0
        assert APP_SCALES["RNN"] == 45.0
        assert APP_SCALES["SqueezeNet"] == 35.0
        assert APP_SCALES["LogReg"] == 35.0
