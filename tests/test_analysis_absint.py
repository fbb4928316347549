"""Abstract-interpretation schedule verifier: transfer functions,
violations, the mutation suite, and the façade."""

import pytest

from repro.analysis.absint import (
    HEADROOM_BITS,
    check_observations,
    level_modulus_bits,
    min_scale_bits,
    verify_or_raise,
    verify_trace,
)
from repro.analysis.sanitize import OpObservation
from repro.errors import ScheduleViolationError
from repro.trace.program import HeTrace, OpKind, TraceOp
from repro.workloads import workload_traces
from tests.oracles.mutations import MUTATIONS


def make_trace(ops, scales=(30.0, 30.0, 30.0, 30.0), base=60.0, n=1024):
    return HeTrace(
        name="fixture", n=n, base_bits=base,
        level_scale_bits=tuple(scales), ops=ops,
    )


def rules(result):
    return [f.rule for f in result.findings]


class TestModulusAlgebra:
    def test_flat_chain_telescopes(self):
        trace = make_trace([])
        q = level_modulus_bits(trace)
        # Q_top = base + sum(T[1:]); each level sheds 2T_l - T_{l-1}.
        assert q == (60.0, 90.0, 120.0, 150.0)
        # The telescoped identity: Q_0 = base + T_0 - T_top.
        assert q[0] == trace.base_bits + 30.0 - 30.0

    def test_mixed_scales(self):
        trace = make_trace([], scales=(45.0, 30.0), base=60.0)
        q = level_modulus_bits(trace)
        assert q == (75.0, 90.0)  # rho_1 = 2*30 - 45 = 15

    def test_negative_prime_width_is_infeasible(self):
        trace = make_trace([], scales=(50.0, 20.0))
        result = verify_trace(trace)
        assert "trace-infeasible-chain" in rules(result)
        assert result.log2_q is None

    def test_modulus_below_scale_is_infeasible(self):
        trace = make_trace([], scales=(40.0, 40.0), base=10.0)
        result = verify_trace(trace)
        assert "trace-infeasible-chain" in rules(result)

    def test_min_scale_tracks_ring_degree(self):
        assert min_scale_bits(1024) == pytest.approx(11.5)
        assert min_scale_bits(65536) == pytest.approx(14.5)


class TestTransferFunctions:
    def test_clean_mul_rescale_add(self):
        trace = make_trace([
            TraceOp(OpKind.HMUL, 2),
            TraceOp(OpKind.RESCALE, 2),
            TraceOp(OpKind.HADD, 1),
        ])
        result = verify_trace(trace)
        assert result.ok
        assert [r.level for r in result.records] == [2, 1, 1]
        assert result.records[0].scale_hi == 60.0  # product interval
        assert result.records[1].scale_hi == 30.0  # back to canonical

    def test_missing_rescale_breaks_level_flow(self):
        trace = make_trace([
            TraceOp(OpKind.HMUL, 3),
            TraceOp(OpKind.HADD, 2),  # no rescale in between
        ])
        result = verify_trace(trace)
        assert rules(result) == ["trace-level-flow"]
        assert "rescale" in result.findings[0].message

    def test_jump_to_top_level_is_a_bootstrap(self):
        trace = make_trace([
            TraceOp(OpKind.HMUL, 1),
            TraceOp(OpKind.RESCALE, 1),
            TraceOp(OpKind.HMUL, 3),  # level 0 -> max_level: re-encrypt
        ])
        result = verify_trace(trace)
        assert result.ok
        assert result.bootstraps == 1

    def test_scale_overflow_on_wide_operand(self):
        trace = make_trace([TraceOp(OpKind.HMUL, 1, scale_bits=90.0)])
        result = verify_trace(trace)
        assert "trace-scale-overflow" in rules(result)

    def test_product_near_modulus_needs_headroom(self):
        # Q_1 = 50 + 48 = 98 bits; the 48-bit canonical scale squares
        # to 96 — it fits, but inside the 4-bit headroom band.
        trace = make_trace(
            [TraceOp(OpKind.HMUL, 1)], scales=(40.0, 48.0), base=50.0
        )
        q = level_modulus_bits(trace)
        assert 2 * 48.0 <= q[1] < 2 * 48.0 + HEADROOM_BITS
        assert "trace-scale-overflow" in rules(verify_trace(trace))

    def test_unmultiplied_rescale_below_floor(self):
        # Flat 30-bit chain: rescaling a canonical ciphertext leaves a
        # zero-bit scale, below the precision floor.
        trace = make_trace([TraceOp(OpKind.RESCALE, 2)])
        assert rules(verify_trace(trace)) == ["trace-rescale-below-min"]

    def test_unmultiplied_rescale_with_headroom_is_legal(self):
        # T_1=30 sheds only 15 bits (T_0=45), so the unmultiplied
        # rescale stays above the floor.
        trace = make_trace(
            [TraceOp(OpKind.RESCALE, 1)], scales=(45.0, 30.0), base=60.0
        )
        result = verify_trace(trace)
        assert result.ok
        assert [r.scale_hi for r in result.records] == [15.0]

    def test_adjust_with_no_source_compute_is_legal(self):
        trace = make_trace([TraceOp(OpKind.ADJUST, 2, dst_level=1)])
        result = verify_trace(trace)
        assert result.ok
        assert [r.level for r in result.records] == [1]

    def test_adjust_after_source_compute_is_clean(self):
        trace = make_trace([
            TraceOp(OpKind.HADD, 2),
            TraceOp(OpKind.ADJUST, 2, dst_level=1),
        ])
        assert verify_trace(trace).ok

    def test_adjust_into_cursor_level_keeps_product_state(self):
        # LogReg's shape: multiply, adjust a sibling down to the cursor,
        # then rescale the product.  The adjust must not erase the
        # product or the rescale would fall below the precision floor.
        trace = make_trace([
            TraceOp(OpKind.HMUL, 2),
            TraceOp(OpKind.RESCALE, 2),
            TraceOp(OpKind.HMUL, 1),
            TraceOp(OpKind.ADJUST, 2, dst_level=1),
            TraceOp(OpKind.RESCALE, 1),
        ])
        assert verify_trace(trace).ok

    def test_noise_exhaustion_on_starved_scales(self):
        trace = make_trace(
            [TraceOp(OpKind.HMUL, 1)], scales=(8.0, 8.0), base=60.0
        )
        result = verify_trace(trace)
        assert "trace-noise-exhausted" in rules(result)
        assert result.min_noise_margin_bits <= 0

    def test_slack_bits_reported_at_level_zero(self):
        # Q_0 = 120 bits less the 4-bit headroom and the 30-bit scale.
        trace = make_trace([], scales=(30.0, 30.0), base=120.0)
        result = verify_trace(trace)
        assert result.ok
        assert result.slack_bits[0] == pytest.approx(86.0)


class TestGate:
    def test_verify_or_raise_passes_clean_trace(self):
        trace = make_trace([TraceOp(OpKind.HMUL, 2), TraceOp(OpKind.RESCALE, 2)])
        assert verify_or_raise(trace).ok

    def test_verify_or_raise_raises_on_violation(self):
        trace = make_trace([TraceOp(OpKind.HMUL, -1)])
        with pytest.raises(ScheduleViolationError, match="trace-level-range"):
            verify_or_raise(trace)


class TestCrossCheckApi:
    def _result(self):
        return verify_trace(make_trace([
            TraceOp(OpKind.HMUL, 2),
            TraceOp(OpKind.RESCALE, 2),
        ]))

    def test_contained_observations_pass(self):
        result = self._result()
        observed = [
            (0, OpObservation("hmul", 2, 60.01)),
            (1, OpObservation("rescale", 1, 29.97)),
        ]
        assert check_observations(result, observed) == []

    def test_level_mismatch_reported(self):
        result = self._result()
        observed = [(1, OpObservation("rescale", 2, 30.0))]
        mismatches = check_observations(result, observed)
        assert len(mismatches) == 1 and "level" in mismatches[0]

    def test_scale_outside_interval_reported(self):
        result = self._result()
        observed = [(0, OpObservation("hmul", 2, 75.0))]
        mismatches = check_observations(result, observed)
        assert len(mismatches) == 1 and "interval" in mismatches[0]

    def test_unknown_index_reported(self):
        mismatches = check_observations(
            self._result(), [(9, OpObservation("hmul", 2, 60.0))]
        )
        assert mismatches == ["op 9: no abstract record"]


class TestBundledWorkloads:
    def test_all_bundled_traces_certify_clean(self):
        for trace in workload_traces():
            result = verify_trace(trace)
            assert result.findings == [], trace.name
            # Real headroom on every schedule the paper prices.
            assert result.min_noise_margin_bits > 8.0
            assert result.bootstraps > 0

    def test_every_mutation_is_caught_with_its_rule(self):
        # The full seeded-mutation matrix: 5 corruption classes x every
        # bundled schedule, each reported under the expected rule id.
        for trace in workload_traces():
            for mutation in MUTATIONS:
                mutated = mutation.apply(trace)
                got = {f.rule for f in verify_trace(mutated).findings}
                assert mutation.expected_rule in got, (
                    f"{mutation.name} on '{trace.name}': expected "
                    f"{mutation.expected_rule}, got {sorted(got)}"
                )

    def test_mutated_traces_fail_the_gate(self):
        trace = workload_traces(schemes=("bitpacker",))[0]
        mutated = MUTATIONS[0].apply(trace)
        with pytest.raises(ScheduleViolationError):
            verify_or_raise(mutated)
