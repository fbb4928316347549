"""Trace IR and workload-generator tests."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.accel.sim import op_rows
from repro.errors import ParameterError
from repro.eval import common
from repro.trace.program import (
    HeTrace,
    OpKind,
    TraceBuilder,
    TraceOp,
    content_digest,
)
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


def dict_digest(trace: HeTrace) -> str:
    """The digest's definition: sha256 of the sorted-key JSON of
    ``to_dict()`` without its schema marker."""
    payload = trace.to_dict()
    del payload["schema"]
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


class TestContentDigest:
    """``content_digest`` encodes each distinct op once per call; its
    bytes must stay those of the dict encoding."""

    def test_mixed_field_types_and_an_escaped_name(self):
        ops = [
            TraceOp(OpKind.HMUL, 2, 1),
            TraceOp(OpKind.HMUL, 2, 1.0),
            TraceOp(OpKind.HMUL, 2, True),
            TraceOp(OpKind.HROT, 1, 3, scale_bits=None),
            TraceOp(OpKind.HROT, 1, 3, scale_bits=30.0),
            TraceOp(OpKind.HROT, 1, 3, scale_bits=30),
            TraceOp(OpKind.HADD, 1, 0.0, scale_bits=0.0),
            TraceOp(OpKind.HADD, 1, -0.0, scale_bits=-0.0),
            TraceOp(OpKind.HADD, 1, 0.0, scale_bits=0.0),
            TraceOp(OpKind.ADJUST, 2, 0.5, dst_level=0, scale_bits=1e-300),
            TraceOp(OpKind.ADJUST, 2, 0.5, dst_level=0, scale_bits=float("nan")),
            TraceOp(OpKind.RESCALE, 2, 2.5),
        ] * 3
        for name in ('quote " backslash \\ newline \n tab \t', "é ∑ \x00 😀"):
            trace = HeTrace(name=name, n=1024, base_bits=40.5,
                            level_scale_bits=(30.0, 30, 29.5), ops=ops)
            assert content_digest(trace) == dict_digest(trace)

    def test_op_order_and_empty_ops(self):
        a, b = TraceOp(OpKind.HMUL, 1), TraceOp(OpKind.HADD, 1)
        traces = [HeTrace("t", 64, 40.0, (30.0, 30.0), ops)
                  for ops in ([a, b], [b, a], [])]
        assert [content_digest(t) for t in traces] == [
            dict_digest(t) for t in traces]
        assert len({content_digest(t) for t in traces}) == 3

    def test_bundled_traces_keep_their_digests(self):
        traces = [common.trace_for(app, bs, scheme, 28)
                  for scheme in common.SCHEMES
                  for app, bs in common.WORKLOAD_GRID]
        digests = [content_digest(t) for t in traces]
        assert digests == [dict_digest(t) for t in traces]
        # Recorded from the dict encoding before it was replaced.
        assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == (
            "a6f2af0d7549294e3d714412deb14e003df375cb2f0d0e65831801ded7dbcb22")


def _grid_traces() -> list[HeTrace]:
    """The traces one ``model_sweep`` pass prices (Figs. 11/13 at 28 and
    64 bits, Sec. 6.2's LogReg at 36)."""
    keys = [(app, bs, scheme, word)
            for scheme in common.SCHEMES
            for app, bs in common.WORKLOAD_GRID
            for word in (28, 64)]
    keys += [("LogReg", "BS19", scheme, 36) for scheme in common.SCHEMES]
    return [common.trace_for(*key) for key in keys]


def _price(op: TraceOp) -> tuple:
    return op.kind.value, op.level, op.dst_level, repr(op.scale_bits)


def _validate_outcome(trace: HeTrace) -> str | None:
    try:
        trace.validate()
    except ParameterError as exc:
        return str(exc)
    return None


class TestDistinctOps:
    """Every consumer of :meth:`HeTrace.distinct_ops` must read what it
    would read op by op, whether the table came from the builder or
    from one pass over ops that share nothing."""

    @pytest.fixture(scope="class")
    def traces(self) -> list[HeTrace]:
        return _grid_traces()

    def test_round_trip_copies_agree(self, traces):
        assert len(traces) == 42
        for trace in traces:
            copy = HeTrace.from_dict(trace.to_dict())
            assert copy.ops == trace.ops
            assert not {id(op) for op in copy.ops} & {id(op) for op in trace.ops}
            assert content_digest(copy) == content_digest(trace)
            table, at, counts = op_rows(trace, _price)
            copy_table, copy_at, copy_counts = op_rows(copy, _price)
            assert copy_table == table
            assert np.array_equal(copy_at, at)
            assert np.array_equal(copy_counts, counts)
            # ... and op_rows is the op-by-op pricing, regrouped.
            assert [table[row] for row in at] == [_price(op) for op in trace.ops]
            assert counts.tolist() == [float(op.count) for op in trace.ops]

    def test_builder_table_is_the_one_pass_table(self, traces):
        for trace in traces:
            built = trace.distinct_ops()
            found = replace(trace, ops=trace.ops).distinct_ops()
            assert found.ops == built.ops
            assert np.array_equal(found.at, built.at)
            assert all(trace.ops[i] is built.ops[row]
                       for i, row in enumerate(built.at))

    def test_validate_agrees_on_mutated_copies(self, traces):
        for trace in traces[::7]:
            middle = len(trace.ops) // 2
            for bad in (TraceOp(OpKind.RESCALE, 0),
                        TraceOp(OpKind.HMUL, trace.max_level + 1)):
                ops = list(trace.ops)
                ops.insert(middle, bad)
                data = trace.to_dict()
                data["ops"].insert(middle, bad.to_dict())
                outcomes = {_validate_outcome(replace(trace, ops=ops)),
                            _validate_outcome(HeTrace.from_dict(data))}
                assert len(outcomes) == 1 and None not in outcomes
            assert _validate_outcome(HeTrace.from_dict(trace.to_dict())) is None

    def test_builder_keeps_types_and_signed_zeros_apart(self):
        b = TraceBuilder("t", n=1024, base_bits=40.0, level_scale_bits=(30.0,) * 3)
        for count in (1, 1.0, 1):
            b.record(OpKind.HMUL, 1, count)
        for scale in (0.0, -0.0, 0.0):
            b.record(OpKind.HADD, 1, scale_bits=scale)
        trace = b.build()
        table = trace.distinct_ops()
        # The int and float counts are two ops; each signed zero stays its own.
        assert table.at.tolist() == [0, 1, 0, 2, 3, 4]
        assert trace.ops[0] is trace.ops[2]
        assert [type(op.count) for op in trace.ops[:3]] == [int, float, int]
        assert [repr(op.scale_bits) for op in trace.ops[3:]] == [
            "0.0", "-0.0", "0.0"]
        assert content_digest(trace) == dict_digest(trace)
        copy = HeTrace.from_dict(trace.to_dict())
        assert copy.distinct_ops().at.tolist() == table.at.tolist()
        # Appended as a block, twice: the zeros still never merge.
        outer = TraceBuilder("t", n=1024, base_bits=40.0,
                             level_scale_bits=(30.0,) * 3)
        outer.extend(trace)
        outer.extend(trace)
        twice = outer.build()
        assert twice.distinct_ops().at.tolist() == [
            0, 1, 0, 2, 3, 4, 0, 1, 0, 5, 6, 7]
        assert np.array_equal(
            replace(twice, ops=twice.ops).distinct_ops().at,
            twice.distinct_ops().at)
        flipped = TraceBuilder("t", n=1024, base_bits=40.0,
                               level_scale_bits=(30.0,) * 3)
        for count in (1.0, 1, 1.0):
            flipped.record(OpKind.HMUL, 1, count)
        for scale in (-0.0, 0.0, -0.0):
            flipped.record(OpKind.HADD, 1, scale_bits=scale)
        assert content_digest(flipped.build()) != content_digest(trace)


class TestWalker:
    def _walker(self, schedule=BS19_SCHEDULE):
        levels = app_levels_for(40.0, schedule, max_log_q=1596.0, n=65536)
        return ProgramWalker("w", 40.0, schedule, levels, n=65536)

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
