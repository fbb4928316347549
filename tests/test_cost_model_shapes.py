"""Both cost models price each distinct op shape once per ``run()``.

A trace is a cost table's rows times multiplicities.  ``run()`` memoises
the per-unit quantities on ``(kind, level, dst_level)`` for the length of
one call; these tests pin the *count* (one decomposition per shape) and
the *values* (``==`` on every result field against the op-by-op loop the
memo replaced, which lives on here as the reference).
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.accel import AcceleratorSim, craterlake, kernels
from repro.accel.sim import KERNELS, SimResult
from repro.cpu import DEFAULT_CPU_MODEL
from repro.cpu.model import CpuResult
from repro.eval import common
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from repro.trace.program import (
    LEVEL_MANAGEMENT_KINDS,
    HeTrace,
    OpKind,
    TraceOp,
)

N = 4096
LEVELS = 6


# ----------------------------------------------------------------------
# References: price every op afresh, no memo (the pre-memo loop bodies).
# ----------------------------------------------------------------------
def reference_sim_run(sim: AcceleratorSim, trace: HeTrace, chain) -> SimResult:
    result = SimResult(
        name=trace.name, config_name=sim.config.name, scheme=chain.scheme,
        clock_ghz=sim.config.clock_ghz,
    )
    n = trace.n
    for op in trace.ops:
        cost = sim.op_cost(op, chain)
        components = sim.op_cycle_components(cost, n)
        memory = components["hbm"]
        compute = max(v for k, v in components.items() if k != "hbm")
        cycles = max(compute, memory) * op.count
        bottleneck = max(KERNELS, key=components.__getitem__)
        result.kernel_cycles[bottleneck] = (
            result.kernel_cycles.get(bottleneck, 0.0) + cycles
        )
        hbm_bytes = sim._op_hbm_bytes(cost, n) * op.count
        extra_hbm = hbm_bytes - cost.hbm_rows * sim.config.row_bytes(n) * op.count
        breakdown = sim.energy_model.op_energy_breakdown(
            cost, n, sim.config.word_bits,
            extra_hbm_bytes=max(0.0, extra_hbm) / max(op.count, 1.0),
        )
        energy = sum(breakdown.values()) * op.count
        result.cycles += cycles
        result.compute_cycles += compute * op.count
        result.memory_cycles += memory * op.count
        result.energy_j += energy
        result.hbm_bytes += hbm_bytes
        kind_name = op.kind.value
        result.cycles_by_kind[kind_name] = (
            result.cycles_by_kind.get(kind_name, 0.0) + cycles
        )
        for component, joules in breakdown.items():
            result.energy_by_component[component] = (
                result.energy_by_component.get(component, 0.0)
                + joules * op.count
            )
        if op.kind in LEVEL_MANAGEMENT_KINDS:
            result.level_mgmt_cycles += cycles
            result.level_mgmt_energy_j += energy
    static = sim.energy_model.static_watts * result.time_s
    result.energy_j += static
    result.energy_by_component["static"] = static
    return result


def reference_cpu_run(model, trace: HeTrace, chain) -> CpuResult:
    result = CpuResult(
        name=trace.name, scheme=chain.scheme, clock_ghz=model.clock_ghz
    )
    for op in trace.ops:
        cycles = model.op_cycles(op, chain, trace.n) * op.count
        result.cycles += cycles
        kind_name = op.kind.value
        result.cycles_by_kind[kind_name] = (
            result.cycles_by_kind.get(kind_name, 0.0) + cycles
        )
        if op.kind in LEVEL_MANAGEMENT_KINDS:
            result.level_mgmt_cycles += cycles
    return result


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chains():
    kw = dict(n=N, word_bits=28, level_scale_bits=40.0, levels=LEVELS,
              base_bits=50.0, ks_digits=2)
    return plan_bitpacker_chain(**kw), plan_rns_ckks_chain(**kw)


def random_trace(seed: int) -> HeTrace:
    """Few shapes, many ops: repeated shapes under differing counts,
    fractional counts, counts below one (where the extra-HBM clamp
    ``max(count, 1)`` stops being a plain factor), and ADJUSTs that
    share a source level but not a destination."""
    rng = random.Random(seed)
    plain = (OpKind.HMUL, OpKind.HROT, OpKind.HADD, OpKind.PMUL, OpKind.PADD)
    counts = (0.25, 0.5, 1.0, 1.0, 2.5, 3.0, 28.0)
    ops = [
        TraceOp(OpKind.ADJUST, LEVELS, 0.5, dst_level=1),
        TraceOp(OpKind.ADJUST, LEVELS, 2.0, dst_level=3),
        TraceOp(OpKind.ADJUST, LEVELS, 0.5, dst_level=LEVELS - 1),
        TraceOp(OpKind.ADJUST, 2, 1.0, dst_level=2),  # recorded no-op
    ]
    for _ in range(300):
        level = rng.randint(0, LEVELS)
        roll = rng.random()
        if roll < 0.15 and level > 0:
            ops.append(TraceOp(OpKind.RESCALE, level, rng.choice(counts)))
        elif roll < 0.30 and level > 0:
            ops.append(TraceOp(OpKind.ADJUST, level, rng.choice(counts),
                               dst_level=rng.randint(0, level - 1)))
        else:
            ops.append(TraceOp(rng.choice(plain), level, rng.choice(counts)))
    rng.shuffle(ops)
    return HeTrace(
        name=f"random-{seed}", n=N, base_bits=50.0,
        level_scale_bits=(40.0,) * (LEVELS + 1), ops=ops,
    )


def shapes_of(trace: HeTrace) -> set:
    return {(op.kind, op.level, op.dst_level) for op in trace.ops}


@pytest.fixture()
def op_cost_calls(monkeypatch):
    calls = []
    real = kernels.op_cost

    def counting(op, chain, kshgen):
        calls.append((op.kind, op.level, op.dst_level))
        return real(op, chain, kshgen)

    monkeypatch.setattr(kernels, "op_cost", counting)
    return calls


# ----------------------------------------------------------------------
class TestOneDecompositionPerShape:
    @pytest.mark.parametrize("scheme", ["bitpacker", "rns-ckks"])
    def test_bundled_trace(self, scheme, op_cost_calls):
        trace = common.trace_for("RNN", "BS19", scheme, 28)
        chain = common.chain_for("RNN", "BS19", scheme, 28)
        shapes = shapes_of(trace)
        assert len(shapes) < len(trace.ops) / 4  # the memo has work to save

        AcceleratorSim(craterlake()).run(trace, chain)
        assert len(op_cost_calls) == len(shapes)
        assert set(op_cost_calls) == shapes

        del op_cost_calls[:]
        DEFAULT_CPU_MODEL.run(trace, chain)
        assert len(op_cost_calls) == len(shapes)

    def test_memo_does_not_outlive_the_call(self, chains, op_cost_calls):
        trace = random_trace(0)
        sim = AcceleratorSim(craterlake())
        sim.run(trace, chains[0])
        sim.run(trace, chains[0])
        assert len(op_cost_calls) == 2 * len(shapes_of(trace))


class TestBitIdenticalToOpByOp:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("register_file_mb", [256.0, 1.0])
    def test_accelerator(self, chains, seed, register_file_mb):
        trace = random_trace(seed)
        sim = AcceleratorSim(craterlake().with_register_file(register_file_mb))
        for chain in chains:
            got = asdict(sim.run(trace, chain))
            want = asdict(reference_sim_run(sim, trace, chain))
            assert got == want
            # Insertion order feeds the obs counters and the JSON records.
            for table in ("kernel_cycles", "cycles_by_kind",
                          "energy_by_component"):
                assert list(got[table]) == list(want[table])

    def test_small_register_file_spills(self, chains):
        """The 1 MB variant above really exercises the spill term."""
        sim = AcceleratorSim(craterlake().with_register_file(1.0))
        cost = sim.op_cost(TraceOp(OpKind.HMUL, LEVELS), chains[0])
        resident = cost.resident_rows * sim.config.row_bytes(N)
        assert resident > sim.config.register_file_mb * 1e6

    @pytest.mark.parametrize("seed", range(6))
    def test_cpu(self, chains, seed):
        trace = random_trace(seed)
        for chain in chains:
            got = asdict(DEFAULT_CPU_MODEL.run(trace, chain))
            assert got == asdict(
                reference_cpu_run(DEFAULT_CPU_MODEL, trace, chain))
