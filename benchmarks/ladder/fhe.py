"""The three FHE workloads: ``logreg_bp28``, ``logreg_rns60``, ``bootstrap_bp28``.

Each is a closed loop of one client: generate seeded inputs, then time
*encrypt → evaluate → decrypt* as one iteration, then check the
decrypted slots against the cleartext computation.  README.md says why
these three chains; this module only runs them.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable

import numpy as np

from benchmarks.ladder import rungs, tracing
from benchmarks.ladder.harness import (
    RUNG_CALLS,
    WorkloadResult,
    clear_repro_caches,
    enumerate_primes_s,
    latency_metrics,
    median,
    peak_rss_mb,
    tail_percentile,
)
from benchmarks.ladder.probe import SpeedProbe
from repro import CkksContext, obs, plan_bitpacker_chain, plan_rns_ckks_chain
from repro.ckks import bootstrap_pipeline
from repro.cpu.model import CpuModel
from repro.schemes.chain import ModulusChain
from repro.trace.program import OpKind, TraceBuilder

FEATURES = 64  # packed into the first 64 slots
SIGMOID_C1, SIGMOID_C3 = 0.25, -1.0 / 48.0
BIAS = 0.1
LOGREG_N = 4096
BOOTSTRAP_N = 128

#: The evaluator ops whose busy time and call count are per-layer metrics.
EVALUATOR_OPS = (
    "multiply", "square", "rotate", "mul_plain",
    "add", "add_plain", "rescale", "adjust",
)
#: Evaluator method -> trace op kind, to replay the measured program on
#: the ``repro.cpu`` model (the Fig. 13 cross-check).
OP_KINDS = {
    "multiply": OpKind.HMUL, "square": OpKind.HMUL,
    "rotate": OpKind.HROT, "conjugate": OpKind.HROT,
    "add": OpKind.HADD, "sub": OpKind.HADD,
    "mul_plain": OpKind.PMUL,
    "add_plain": OpKind.PADD, "sub_plain": OpKind.PADD,
    "rescale": OpKind.RESCALE, "adjust": OpKind.ADJUST,
}
#: ``bootstrap_pipeline`` looks these up in its own namespace, so the
#: traced run wraps them there; the span name says who owns the stage.
BOOTSTRAP_STAGES = (
    ("ckks.bootstrap_pipeline", "mod_raise"),
    ("ckks.homdft", "coeff_to_slot"),
    ("ckks.evalmod", "eval_mod"),
    ("ckks.homdft", "slot_to_coeff"),
)


# ----------------------------------------------------------------------
# The two programs
# ----------------------------------------------------------------------
class LogRegProgram:
    """``sigmoid(w . x + b)``: the ``examples/encrypted_inference.py`` program."""

    hamming_weight = None
    check = "decrypted score within 2^-20 of the cleartext polynomial"

    def passes(self, got: np.ndarray, want: np.ndarray) -> bool:
        return bool(abs(got[0] - want[0]) < 2.0 ** -20)

    def fixed(self, rng: np.random.Generator, ctx: CkksContext) -> np.ndarray:
        weights = np.zeros(ctx.slots)
        weights[:FEATURES] = rng.uniform(-0.2, 0.2, FEATURES)
        return weights

    def inputs(self, rng: np.random.Generator, ctx: CkksContext) -> np.ndarray:
        features = np.zeros(ctx.slots)
        features[:FEATURES] = rng.uniform(-1.0, 1.0, FEATURES)
        return features

    def run(self, ctx: CkksContext, weights: np.ndarray,
            features: np.ndarray) -> np.ndarray:
        ev = ctx.evaluator
        ct = ctx.encrypt(features)
        acc = ev.rescale(ev.mul_plain(ct, weights))
        shift = 1
        while shift < FEATURES:
            acc = ev.add(acc, ev.rotate(acc, shift))
            shift *= 2
        t = ev.add_plain(acc, BIAS)
        t2 = ev.square_rescale(t)
        c3t = ev.rescale(ev.mul_plain(t, SIGMOID_C3))
        c3t = ev.adjust(c3t, t2.level)
        cubic = ev.multiply_rescale(t2, c3t)
        linear = ev.rescale(ev.mul_plain(t, SIGMOID_C1))
        linear = ev.adjust(linear, cubic.level)
        out = ev.add_plain(ev.add(cubic, linear), 0.5)
        return ctx.decrypt_real(out)

    def reference(self, weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Every slot's cleartext value, not just the score in slot 0:
        slot ``j`` holds the window sum ``Σ_{k<64} (w·x)[j+k]``, so the
        max error runs over 2048 slots and is far steadier than one."""
        acc = weights * features
        shift = 1
        while shift < FEATURES:
            acc = acc + np.roll(acc, -shift)
            shift *= 2
        t = acc + BIAS
        return 0.5 + SIGMOID_C1 * t + SIGMOID_C3 * t**3


class BootstrapProgram:
    """Exhaust a ciphertext to level 0, then refresh it homomorphically."""

    config = bootstrap_pipeline.PipelineConfig()
    hamming_weight = config.required_hamming_weight()
    check = "every slot refreshed to at least 10 error-free bits"

    def passes(self, got: np.ndarray, want: np.ndarray) -> bool:
        return bool(np.max(np.abs(got - want)) < 2.0 ** -10)

    def fixed(self, rng: np.random.Generator, ctx: CkksContext) -> None:
        return None

    def inputs(self, rng: np.random.Generator, ctx: CkksContext) -> np.ndarray:
        return rng.uniform(-0.4, 0.4, ctx.slots)

    def run(self, ctx: CkksContext, fixed: None, values: np.ndarray) -> np.ndarray:
        ct = ctx.evaluator.adjust(ctx.encrypt(values), 0)
        # Looked up on the module at call time so the traced run's stage
        # wrappers are seen.
        refreshed = bootstrap_pipeline.bootstrap_homomorphic(ctx, ct, self.config)
        return ctx.decrypt_real(refreshed)

    def reference(self, fixed: None, values: np.ndarray) -> np.ndarray:
        return values


@dataclass(frozen=True)
class FheSpec:
    name: str
    program: LogRegProgram | BootstrapProgram
    plan: Callable[[], ModulusChain]
    #: How often set-up is repeated for its median (bounded by cost:
    #: one bootstrap set-up is ~10 s).
    setup_repeats: int
    #: Lower bound on timed iterations (and the number of leading
    #: iterations ``ckks.precision_bits`` is taken over).
    min_iters: int
    #: ``all_ntt_friendly_primes`` arguments the planner enumerates with.
    enumerate_args: tuple[int, int] | None


def _bootstrap_chain() -> ModulusChain:
    return plan_bitpacker_chain(
        n=BOOTSTRAP_N, word_bits=28, level_scale_bits=35.0,
        levels=BootstrapProgram.config.depth + 2, base_bits=40.0, ks_digits=3,
    )


SPECS = {
    spec.name: spec
    for spec in (
        FheSpec(
            "logreg_bp28", LogRegProgram(),
            lambda: plan_bitpacker_chain(
                n=LOGREG_N, word_bits=28, level_scale_bits=35.0, levels=6,
                base_bits=60.0, ks_digits=2,
            ),
            setup_repeats=3, min_iters=3, enumerate_args=(28, LOGREG_N),
        ),
        FheSpec(
            "logreg_rns60", LogRegProgram(),
            lambda: plan_rns_ckks_chain(
                n=LOGREG_N, word_bits=60, level_scale_bits=35.0, levels=6,
                base_bits=60.0, ks_digits=2,
            ),
            setup_repeats=2, min_iters=3, enumerate_args=None,
        ),
        FheSpec(
            "bootstrap_bp28", BootstrapProgram(), _bootstrap_chain,
            setup_repeats=1, min_iters=2, enumerate_args=(28, BOOTSTRAP_N),
        ),
    )
}


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
class _Loop:
    """One context, its fixed operands, and the checked iteration."""

    def __init__(self, spec: FheSpec, ctx: CkksContext, fixed, seed: int,
                 result: WorkloadResult, probe: SpeedProbe):
        self.spec = spec
        self.probe = probe
        self.ctx = ctx
        self.fixed = fixed
        self.rng = np.random.default_rng([seed, 2])
        self.result = result
        self.errors: list[float] = []
        #: Identifier the traced run's spans carry: the iteration's index.
        self.ids = {"iter": 0}

    def iterate(self) -> float:
        program = self.spec.program
        inputs = program.inputs(self.rng, self.ctx)
        self.probe.sample()
        # With recording off the span is the shared no-op, so the
        # untraced and traced parts time the very same code.
        with obs.span("iteration", **self.ids):
            t0 = time.perf_counter()
            got = program.run(self.ctx, self.fixed, inputs)
            elapsed = time.perf_counter() - t0
        self.ids["iter"] += 1
        want = program.reference(self.fixed, inputs)
        self.errors.append(float(np.max(np.abs(got - want))))
        self.result.attempted += 1
        if not program.passes(got, want):
            self.result.failed += 1
        return elapsed

    def run_for(self, seconds: float, min_iters: int) -> list[float]:
        """Iterate for ``seconds`` (and at least ``min_iters`` times)."""
        self.ids["iter"] = 0
        samples: list[float] = []
        started = time.perf_counter()
        while (len(samples) < min_iters
               or time.perf_counter() - started < seconds):
            samples.append(self.iterate())
        return samples


def _set_up(spec: FheSpec, seed: int, warm: bool, result: WorkloadResult,
            probe: SpeedProbe):
    """Plan, build the context, run the warm-up iteration (keys are lazy)."""
    program = spec.program
    probe.sample()
    t0 = time.perf_counter()
    chain = spec.plan()
    plan_s = time.perf_counter() - t0
    ctx = CkksContext(chain, seed=seed, hamming_weight=program.hamming_weight)
    fixed = program.fixed(np.random.default_rng([seed, 1]), ctx)
    loop = _Loop(spec, ctx, fixed, seed, result, probe)
    elapsed = time.perf_counter() - t0
    if warm:
        elapsed += loop.iterate()
        loop.errors.clear()
    return loop, plan_s, elapsed


def run(name: str, seed: int, seconds: float, traced: bool,
        smoke: bool) -> WorkloadResult:
    spec = SPECS[name]
    result = WorkloadResult(workload=name)
    probe = SpeedProbe()
    setup_s, plan_s = [], []
    for _ in range(1 if smoke else spec.setup_repeats):
        clear_repro_caches()
        # Smoke skips the warm-up: its one iteration runs cold.
        loop, plan, total = _set_up(spec, seed, not smoke, result, probe)
        plan_s.append(plan)
        setup_s.append(total)

    min_iters = 1 if smoke else spec.min_iters
    budget = 0.0 if smoke else (seconds / 2 if traced else seconds)
    samples = loop.run_for(budget, min_iters)
    result.check(
        f"{spec.program.check}, on every iteration", result.failed == 0,
        f"largest error of any slot 2^{math.log2(max(loop.errors)):.2f}",
    )
    # Over a fixed number of leading iterations, so it repeats exactly
    # for a seed however many iterations the machine fits in.
    precision_bits = -math.log2(max(loop.errors[:min_iters]))
    result.notes["precision_bits"] = precision_bits
    result.samples = {"iter_p50_s": len(samples), "setup_s": len(setup_s)}
    result.end_to_end = {
        "setup_s": median(setup_s),
        "iter_p50_s": median(samples),
        "throughput_rps": len(samples) / sum(samples),
        **latency_metrics(samples),
    }
    tail = tail_percentile(samples)
    if tail is not None:
        result.notes["iter_tail"] = {"pct": tail[0], "seconds": tail[1]}
    if traced:
        result.per_layer["ckks.precision_bits"] = precision_bits
        _traced_part(spec, loop, seed, budget, min_iters, samples,
                     median(plan_s), smoke, result)
    probe.sample()
    result.machine_speed = probe.speed
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return result


def _traced_part(spec: FheSpec, loop: _Loop, seed: int, budget: float,
                 min_iters: int, untraced: list[float], plan_s: float,
                 smoke: bool, result: WorkloadResult) -> None:
    ctx = loop.ctx
    ev = ctx.evaluator
    ids = loop.ids
    stages = (
        BOOTSTRAP_STAGES if isinstance(spec.program, BootstrapProgram) else ())
    recorded: list[tuple[OpKind, int, int | None]] = []

    def record_op(span_name: str, args: tuple, _result) -> None:
        kind = OP_KINDS.get(span_name.rsplit(".", 1)[1])
        if kind is not None and ids["iter"] == 0:
            dst = args[1] if kind is OpKind.ADJUST else None
            recorded.append((kind, args[0].level, dst))

    with tracing.recording(), ExitStack() as stack:
        stack.enter_context(tracing.wrapped(
            ev, tracing.public_methods(ev), "ckks.evaluator", ids, record_op))
        stack.enter_context(tracing.wrapped(
            ctx, ["encrypt", "decrypt_real"], "ckks.context", ids))
        for prefix, stage in stages:
            stack.enter_context(tracing.wrapped(
                bootstrap_pipeline, [stage], prefix, ids))
        with obs.span(f"workload/{spec.name}", seed=seed):
            before = obs.counters()
            traced = loop.run_for(budget, min_iters)
            delta = tracing.counter_delta(before, obs.counters())
        (tree,) = tracing.take_trees()
    result.trace_events = obs.chrome_trace(tree)
    iters = len(traced)
    stats = tracing.SpanStats(tree)

    calls = 2 if smoke else RUNG_CALLS
    rung = rungs.fhe_rungs(
        ctx, np.random.default_rng([seed, 3]), spec.program.hamming_weight,
        calls,
    )
    # The NTT rungs transform the whole top-level residue stack.
    rung_elems = ctx.chain.residues_at(ctx.chain.max_level) * ctx.chain.n
    pl = result.per_layer
    pl.update(rung)
    pl["schemes.plan_chain_s"] = plan_s
    if spec.enumerate_args is not None and not smoke:
        pl["nt.primes.enumerate_s"] = enumerate_primes_s(
            *spec.enumerate_args)

    def per_iter(value: float) -> float:
        return value / iters

    fwd_elems = delta.get("kernel.ntt.forward.elems", 0)
    inv_elems = delta.get("kernel.ntt.inverse.elems", 0)
    counts = {
        "nt.ntt.forward.calls": delta.get("kernel.ntt.forward", 0),
        "nt.ntt.inverse.calls": delta.get("kernel.ntt.inverse", 0),
        "nt.ntt.elems": fwd_elems + inv_elems,
        "rns.convert.base_convert.calls": delta.get("kernel.base_convert", 0),
        "rns.convert.scale_down.calls": delta.get("kernel.rescale", 0),
        "ckks.evaluator.keyswitch.calls": delta.get("op.keyswitch", 0),
    }
    for kernel in ("pointwise_mul", "pointwise_mul_acc", "bconv_fold"):
        counts[f"backends.{kernel}.calls"] = tracing.sum_counters(
            delta, "kernel.backend.", f".{kernel}")
    for key, value in counts.items():
        pl[key] = per_iter(value)
    for op in EVALUATOR_OPS:
        span_name = f"ckks.evaluator.{op}"
        pl[f"{span_name}.busy_s"] = per_iter(stats.wall_s[span_name])
        pl[f"{span_name}.calls"] = per_iter(stats.calls[span_name])
    for prefix, stage in stages:
        pl[f"{prefix}.{stage}_s"] = per_iter(stats.wall_s[f"{prefix}.{stage}"])

    def is_wrapped_call(span_name: str) -> bool:
        return span_name.startswith(("ckks.evaluator.", "ckks.context."))

    iteration_s = stats.wall_s["iteration"]
    busy_s = stats.self_where(is_wrapped_call)
    glue_s = stats.self_where(
        lambda n: not is_wrapped_call(n) and not n.startswith("workload/"))
    pl["ckks.evaluator.glue_share"] = glue_s / iteration_s

    # What the rungs below explain of the wrapped calls' time (totals
    # over the traced iterations).  Top-level shapes overprice calls
    # made lower in the chain, except the NTT, priced per element.
    sd_calls = counts["rns.convert.scale_down.calls"]
    ntt_s = 1e-6 * (
        rung["nt.ntt.forward_rows_us"] * fwd_elems
        + rung["nt.ntt.inverse_rows_us"] * inv_elems
    ) / rung_elems
    bconv_s = 1e-6 * (
        (counts["rns.convert.base_convert.calls"] - sd_calls)
        * rung["rns.convert.base_convert_us"]
        + sd_calls * rung["rns.convert.scale_down_us"]
    )
    pointwise_s = 1e-6 * (
        counts["backends.pointwise_mul.calls"]
        * rung["backends.pointwise_mul_us"]
        + counts["backends.pointwise_mul_acc.calls"]
        * rung["backends.pointwise_mul_acc_us"]
    )
    galois_s = 1e-6 * rung["rns.poly.galois_us"] * 2 * (
        stats.calls["ckks.evaluator.rotate"]
        + stats.calls["ckks.evaluator.conjugate"])
    encode_s = 1e-6 * rung["ckks.encoder.encode_us"] * sum(
        stats.calls[f"ckks.{owner}"] for owner in (
            "evaluator.mul_plain", "evaluator.add_plain",
            "evaluator.sub_plain", "context.encrypt"))
    decode_s = (1e-6 * rung["ckks.encoder.decode_us"]
                * stats.calls["ckks.context.decrypt_real"])
    pl["ckks.evaluator.explained_share"] = (
        ntt_s + bconv_s + pointwise_s + galois_s + encode_s + decode_s
    ) / busy_s
    pl["obs.trace_overhead_ratio"] = median(traced) / median(untraced)

    result.samples["traced_iterations"] = iters
    result.notes["fig13"] = {
        "iter_p50_s": median(untraced),
        "measured_shares": {
            "ntt": ntt_s / iteration_s,
            "base_convert": bconv_s / iteration_s,
            "pointwise": pointwise_s / iteration_s,
        },
        "cpu_model": _cpu_model_view(ctx.chain, recorded),
    }


def _cpu_model_view(chain: ModulusChain,
                    recorded: list[tuple[OpKind, int, int | None]]) -> dict:
    """Price the recorded program on ``repro.cpu``'s operation counts.

    The model's kernel shares come from re-running it with every cycle
    weight but one zeroed — its public fields, no private cost tables.
    """
    builder = TraceBuilder(
        "ladder", chain.n, chain.log2_q_at(0),
        [math.log2(chain.scale_at(level)) for level in range(chain.max_level + 1)],
    )
    for kind, level, dst in recorded:
        builder.record(kind, level, dst_level=dst)
    trace = builder.build()
    zero = dict(butterfly_cycles=0.0, mul_cycles=0.0, add_cycles=0.0,
                auto_cycles=0.0, crb_mac_cycles=0.0)
    default = CpuModel()
    total = default.run(trace, chain).cycles

    def share(weight: str) -> float:
        only = CpuModel(**{**zero, weight: getattr(default, weight)})
        return only.run(trace, chain).cycles / total

    return {
        "cycles": total,
        "shares": {
            "ntt": share("butterfly_cycles"),
            "base_convert": share("crb_mac_cycles"),
            "pointwise": share("mul_cycles"),
        },
    }
