"""Accelerator model tests: config scaling, kernels, energy, area, sim."""

import math

import pytest

from repro.accel import (
    DEFAULT_AREA_MODEL,
    DEFAULT_ENERGY_MODEL,
    AcceleratorSim,
    ark_like,
    craterlake,
    kernels,
    sharp_like,
    word_size_sweep,
)
from repro.accel.area import CRATERLAKE_AREA_28, CRATERLAKE_AREA_64
from repro.errors import ParameterError, SimulationError
from repro.schemes import plan_bitpacker_chain
from repro.trace.program import OpKind, TraceBuilder, TraceOp


class TestConfig:
    def test_craterlake_defaults(self):
        cfg = craterlake()
        assert cfg.word_bits == 28
        assert cfg.lanes == 2048
        assert cfg.register_file_mb == 256.0
        assert cfg.crb_macs_per_lane == 56

    def test_iso_throughput_scaling(self):
        base = craterlake()
        for w in (32, 36, 48, 64):
            scaled = base.with_word_size(w)
            ratio = scaled.bit_throughput_per_cycle / base.bit_throughput_per_cycle
            assert abs(ratio - 1.0) < 0.05  # constant bits/cycle

    def test_ark_and_sharp_presets(self):
        assert ark_like().word_bits == 64
        assert sharp_like().word_bits == 36
        assert ark_like().lanes < craterlake().lanes

    def test_crb_macs_scale_down(self):
        assert ark_like().crb_macs_per_lane < craterlake().crb_macs_per_lane

    def test_register_file_variant(self):
        cfg = craterlake().with_register_file(150.0)
        assert cfg.register_file_mb == 150.0

    def test_crb_shrink(self):
        cfg = craterlake().with_crb_shrink(0.28)
        assert cfg.crb_macs_per_lane == round(56 * 0.72)

    def test_word_size_sweep(self):
        sweep = word_size_sweep()
        assert [c.word_bits for c in sweep] == list(range(28, 65, 4))

    def test_invalid_word_size(self):
        with pytest.raises(ParameterError):
            craterlake().with_word_size(80)


class TestKernels:
    def test_hmul_dominates_rescale(self):
        """Level management is minor vs a homomorphic multiply (Sec. 4.3)."""
        hmul = kernels.hmul_cost(40, 14, 3)
        resc = kernels.rescale_cost(40, 1, 2)
        assert resc.ntt_passes < hmul.ntt_passes
        assert resc.crb_mac_rows < hmul.crb_mac_rows

    def test_hmul_cost_grows_with_r(self):
        small = kernels.hmul_cost(10, 4, 3)
        large = kernels.hmul_cost(60, 20, 3)
        assert large.ntt_passes > small.ntt_passes
        assert large.crb_mac_rows > small.crb_mac_rows
        # CRB MACs grow superlinearly (the O(R^2) term of Sec. 4.2).
        assert large.crb_mac_rows / small.crb_mac_rows > 6 * 1.5

    def test_hrot_close_to_hmul(self):
        """Paper Sec. 4.2: rotations cost nearly the same as multiplies."""
        hmul = kernels.hmul_cost(40, 14, 3)
        hrot = kernels.hrot_cost(40, 14, 3)
        assert 0.5 < hrot.ntt_passes / hmul.ntt_passes <= 1.0

    def test_hadd_negligible(self):
        hadd = kernels.hadd_cost(40)
        assert hadd.ntt_passes == 0
        assert hadd.crb_mac_rows == 0

    def test_kshgen_removes_hint_traffic(self):
        with_gen = kernels.hmul_cost(40, 14, 3, kshgen=True)
        without = kernels.hmul_cost(40, 14, 3, kshgen=False)
        assert with_gen.hbm_rows < without.hbm_rows
        assert with_gen.kshgen_passes > 0

    def test_scale_down_multi_vs_single(self):
        """Shedding k moduli at once ~ shedding one (CRB, Sec. 4.3)."""
        one = kernels.rescale_cost(40, 0, 1)
        three = kernels.rescale_cost(40, 0, 3)
        assert three.ntt_passes < 1.3 * one.ntt_passes

    def test_merged_and_scaled(self):
        a = kernels.hadd_cost(10)
        b = kernels.pmul_cost(10)
        merged = a.merged(b)
        assert merged.add_passes == a.add_passes + b.add_passes
        assert merged.mul_passes == b.mul_passes
        doubled = b.scaled(2.0)
        assert doubled.mul_passes == 2 * b.mul_passes


class TestEnergyModel:
    def test_multiplier_energy_quadratic(self):
        m = DEFAULT_ENERGY_MODEL
        r = m.mul_pj(56) / m.mul_pj(28)
        assert 2.5 < r < 4.0  # dominated by the quadratic term

    def test_adder_energy_linear(self):
        m = DEFAULT_ENERGY_MODEL
        assert m.add_pj(56) / m.add_pj(28) == pytest.approx(2.0)

    def test_hmul_energy_superlinear_in_r(self):
        m = DEFAULT_ENERGY_MODEL
        e10 = m.op_energy(kernels.hmul_cost(10, 4, 3), 65536, 28)
        e60 = m.op_energy(kernels.hmul_cost(60, 20, 3), 65536, 28)
        exponent = math.log(e60 / e10) / math.log(6)
        assert 1.15 < exponent < 1.8  # paper: ~1.6

    def test_fig10_magnitude(self):
        """A 28-bit hmul at R=60 costs single-digit mJ (paper Fig. 10)."""
        m = DEFAULT_ENERGY_MODEL
        bd = m.op_energy_breakdown(kernels.hmul_cost(60, 20, 3), 65536, 28)
        on_chip = sum(v for k, v in bd.items() if k != "hbm")
        assert 2e-3 < on_chip < 12e-3
        assert bd["crb"] > bd["elementwise"]  # CRB dominant at high R


class TestAreaModel:
    def test_anchor_points(self):
        assert DEFAULT_AREA_MODEL.total_area(craterlake()) == pytest.approx(
            CRATERLAKE_AREA_28, rel=0.01
        )
        assert DEFAULT_AREA_MODEL.total_area(ark_like()) == pytest.approx(
            CRATERLAKE_AREA_64, rel=0.01
        )

    def test_area_monotone_in_word(self):
        areas = [
            DEFAULT_AREA_MODEL.total_area(craterlake().with_word_size(w))
            for w in (28, 36, 48, 64)
        ]
        assert areas == sorted(areas)

    def test_rf_reduction_shrinks_area(self):
        small = craterlake().with_register_file(200.0)
        assert DEFAULT_AREA_MODEL.total_area(small) < CRATERLAKE_AREA_28

    def test_crb_shrink_shrinks_area(self):
        small = craterlake().with_crb_shrink(0.28)
        assert DEFAULT_AREA_MODEL.total_area(small) < CRATERLAKE_AREA_28


def _tiny_trace():
    b = TraceBuilder("t", n=4096, base_bits=40.0, level_scale_bits=(30.0,) * 4)
    b.hmul(3, 4)
    b.rescale(3, 4)
    b.hrot(2, 2)
    b.hadd(2, 10)
    b.adjust(3, 2, 1)
    return b.build()


@pytest.fixture(scope="module")
def tiny_chain():
    return plan_bitpacker_chain(
        n=4096, word_bits=28, level_scale_bits=30.0, levels=3,
        base_bits=40.0, ks_digits=2,
    )


class TestSimulator:
    def test_run_accumulates(self, tiny_chain):
        sim = AcceleratorSim(craterlake())
        res = sim.run(_tiny_trace(), tiny_chain)
        assert res.cycles > 0
        assert res.energy_j > 0
        assert res.level_mgmt_cycles > 0
        assert res.level_mgmt_cycles < res.cycles
        assert set(res.cycles_by_kind) == {"hmul", "rescale", "hrot", "hadd", "adjust"}

    def test_level_mismatch_rejected(self, tiny_chain):
        sim = AcceleratorSim(craterlake())
        b = TraceBuilder("bad", n=4096, base_bits=40.0,
                         level_scale_bits=(30.0,) * 6)
        b.hmul(5)
        with pytest.raises(SimulationError):
            sim.run(b.build(), tiny_chain)

    def test_smaller_rf_never_faster(self, tiny_chain):
        trace = _tiny_trace()
        big = AcceleratorSim(craterlake().with_register_file(400)).run(
            trace, tiny_chain
        )
        small = AcceleratorSim(craterlake().with_register_file(20)).run(
            trace, tiny_chain
        )
        assert small.cycles >= big.cycles

    def test_energy_includes_static(self, tiny_chain):
        sim = AcceleratorSim(craterlake())
        res = sim.run(_tiny_trace(), tiny_chain)
        assert "static" in res.energy_by_component
        assert res.energy_by_component["static"] == pytest.approx(
            DEFAULT_ENERGY_MODEL.static_watts * res.time_s
        )

    def test_ops_at_lower_levels_cheaper(self, tiny_chain):
        sim = AcceleratorSim(craterlake())
        hi = sim.op_cycles(
            sim.op_cost(TraceOp(OpKind.HMUL, 3), tiny_chain), 4096
        )[0]
        lo = sim.op_cycles(
            sim.op_cost(TraceOp(OpKind.HMUL, 0), tiny_chain), 4096
        )[0]
        assert lo < hi
