"""Batched ciphertexts: a batch of B runs every op in one call and must
give, byte for byte, what its members give one at a time — on the
narrow 28-bit paths of both planners and on the wide 60-bit Shoup
paths — and must read as B ops on the op log and the counters."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.ckks import CkksContext, bootstrap_pipeline, stack
from repro.ckks.bootstrap_pipeline import PipelineConfig, mod_raise
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.evalmod import EvalModConfig, eval_mod
from repro.ckks.homdft import coeff_to_slot, homdft_matrices, slot_to_coeff
from repro.errors import InvariantViolation, ParameterError
from repro.obs import core
from repro.rns.poly import RnsPolynomial
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from tests.oracles.bsgs import serial_bsgs, serial_rotate_sum
from tests.test_ckks_linear_plan import same_bytes

#: (planner, word bits, level scale bits, base bits): the narrow paths of
#: both schemes and the wide one.
CHAINS = {
    "bp28": (plan_bitpacker_chain, 28, 30.0, 40.0),
    "rns28": (plan_rns_ckks_chain, 28, 30.0, 40.0),
    "rns60": (plan_rns_ckks_chain, 60, 40.0, 60.0),
}
BATCH = 3


@pytest.fixture(
    scope="module",
    params=[(name, n) for name in CHAINS for n in (64, 128)],
    ids=lambda p: f"{p[0]}-n{p[1]}",
)
def chain(request):
    name, n = request.param
    plan, word, scale_bits, base_bits = CHAINS[name]
    return plan(n=n, word_bits=word, level_scale_bits=scale_bits, levels=4,
                base_bits=base_bits, ks_digits=2)


@pytest.fixture(scope="module")
def members(chain):
    """A context and ``BATCH`` ciphertexts holding distinct values."""
    ctx = CkksContext(chain, seed=11)
    rng = np.random.default_rng(5)
    cts = [ctx.encrypt(rng.uniform(-1, 1, ctx.slots)) for _ in range(BATCH)]
    return ctx, cts


def _same_members(batch: Ciphertext, serial: list[Ciphertext]) -> None:
    got = batch.unstack()
    assert len(got) == len(serial)
    for g, w in zip(got, serial):
        same_bytes(g, w)


#: ``op(ev, x, y)`` for every op EvalMod reaches, and the rotations.
OPS = {
    "add": lambda ev, x, y: ev.add(x, y),
    "sub": lambda ev, x, y: ev.sub(x, y),
    "mul_plain": lambda ev, x, y: ev.mul_plain(x, 0.75),
    "mul_plain_vector": lambda ev, x, y: ev.mul_plain(x, np.linspace(-1, 1, 8)),
    "add_plain": lambda ev, x, y: ev.add_plain(x, 0.5),
    "sub_plain": lambda ev, x, y: ev.sub_plain(x, 0.25),
    "mul_integer": lambda ev, x, y: ev.mul_integer(x, 3),
    "multiply": lambda ev, x, y: ev.multiply(x, y),
    "square": lambda ev, x, y: ev.square(x),
    "rescale": lambda ev, x, y: ev.rescale(x),
    "adjust_one_level": lambda ev, x, y: ev.adjust(x, x.level - 1),
    "adjust_with_drops": lambda ev, x, y: ev.adjust(x, 1),
    "rotate": lambda ev, x, y: ev.rotate(x, 3),
    "conjugate": lambda ev, x, y: ev.conjugate(x),
}


class TestOpsMatchMembers:
    @pytest.mark.parametrize("domain", ["coeff", "ntt"])
    @pytest.mark.parametrize("op", OPS)
    def test_batch_is_its_members(self, members, op, domain):
        ctx, cts = members
        if domain == "ntt":
            cts = [ct.to_ntt() for ct in cts]
        others = cts[1:] + cts[:1]
        ev, fn = ctx.evaluator, OPS[op]
        batched = fn(ev, stack(cts), stack(others))
        assert batched.batch == (BATCH,)
        _same_members(batched, [fn(ev, x, y) for x, y in zip(cts, others)])

    def test_multi_level_adjust_runs_listing_6(self, members):
        """The adjust above is the full move: drops, a constant other
        than 1 and, on BitPacker, a grown modulus (Listing 6)."""
        ctx, cts = members
        chain = ctx.chain
        move = chain.move(cts[0].level, 1)
        assert move.drops
        assert round(chain.scale_at(1) / (cts[0].scale * move.factor)) != 1
        assert bool(move.added) == (chain.scheme == "bitpacker")

    def test_batch_of_one_is_the_ciphertext(self, members):
        ctx, cts = members
        ev = ctx.evaluator
        (got,) = ev.square(stack(cts[:1])).unstack()
        same_bytes(got, ev.square(cts[0]))


@pytest.fixture(scope="module")
def boot_chain():
    return plan_bitpacker_chain(
        n=64, word_bits=28, level_scale_bits=35.0,
        levels=PipelineConfig().depth + 1, base_bits=40.0, ks_digits=3,
    )


def _bottom(chain, seed: int):
    config = PipelineConfig()
    ctx = CkksContext(chain, seed=seed, hamming_weight=config.required_hamming_weight())
    values = np.random.default_rng(seed).uniform(-0.4, 0.4, ctx.slots)
    return ctx, ctx.evaluator.adjust(ctx.encrypt(values), 0)


def _serial_bootstrap(ctx, ct, config=PipelineConfig()):
    """The pipeline one ciphertext at a time: CtS and StC as the serial
    double-hoisted BSGS flow (one lifted baby rotation, product and
    giant-step keyswitch at a time, one mod-down per output), EvalMod
    once per CtS half."""
    ev, chain = ctx.evaluator, ctx.chain
    q0, scale = chain.q_product_at(0), float(ct.scale)
    mats = homdft_matrices(chain.n)
    g = round(math.sqrt(ctx.slots))
    raised = mod_raise(ctx, ct, chain.max_level)
    halves = serial_bsgs(
        ev, [[mats.p1, mats.q1], [mats.p2, mats.q2]], [raised, ev.conjugate(raised)], g
    )
    refreshed = [
        eval_mod(ev, ev.adjust(h, h.level - 1), config.evalmod, scale / q0, q0 / scale)
        for h in halves
    ]
    (out,) = serial_bsgs(ev, [[mats.v1, mats.v2]], refreshed, g)
    return out


def _observed(log) -> Counter:
    return Counter((o.kind, o.level, o.scale_bits) for o in log)


class TestEvalModAndBootstrap:
    def test_eval_mod_on_a_pair_is_two_calls(self, boot_chain):
        ctx = CkksContext(boot_chain, seed=3)
        rng = np.random.default_rng(3)
        cts = [ctx.encrypt(rng.uniform(-2.4, 2.4, ctx.slots)) for _ in range(2)]
        config = EvalModConfig(k_range=2, degree=15)
        ev = ctx.evaluator
        _same_members(
            eval_mod(ev, stack(cts), config), [eval_mod(ev, ct, config) for ct in cts]
        )

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_bootstrap_is_the_serial_flow(self, boot_chain, seed):
        ctx, ct = _bottom(boot_chain, seed)
        got = bootstrap_pipeline.bootstrap_homomorphic(ctx, ct)
        same_bytes(got, _serial_bootstrap(ctx, ct))

    def test_bootstrap_op_log_is_the_serial_flow(self, boot_chain, counters):
        """Under ``record_ops`` the batch logs each member's op: the
        same ``(kind, level, scale_bits)`` multiset, in another order,
        and the same rotation and keyswitch counts — a stacked
        keyswitch counts each giant step it switches."""
        ctx, ct = _bottom(boot_chain, 104)
        names = ("op.rotate", "op.keyswitch")
        bootstrap_pipeline.bootstrap_homomorphic(ctx, ct)  # keys are lazy
        runs = []
        for flow in (bootstrap_pipeline.bootstrap_homomorphic, _serial_bootstrap):
            before = counters(*names)
            with sanitize.record_ops() as log:
                flow(ctx, ct)
                observed = _observed(log)
            after = counters(*names)
            runs.append((observed, {k: after[k] - before[k] for k in names}))
        (batched, batched_ops), (serial, serial_ops) = runs
        assert batched == serial
        assert batched_ops == serial_ops
        assert sum(n for (kind, _, _), n in batched.items() if kind == "hmul") > 2
        assert sum(n for (kind, _, _), n in batched.items() if kind == "hrot") > 20


    def test_a_batch_of_bootstraps_is_its_members(self, boot_chain):
        """Mod-raised inputs stacked under one key run CtS, EvalMod and
        StC as one batch: the blocks' row-stacked plaintexts broadcast
        over the members, which come out as their own serial
        bootstraps."""
        ctx, _ = _bottom(boot_chain, 105)
        ev, chain, config = ctx.evaluator, ctx.chain, PipelineConfig()
        rng = np.random.default_rng(105)
        cts = [
            ev.adjust(ctx.encrypt(rng.uniform(-0.4, 0.4, ctx.slots)), 0)
            for _ in range(2)
        ]
        q0, scale = chain.q_product_at(0), float(cts[0].scale)
        raised = stack([mod_raise(ctx, ct, chain.max_level) for ct in cts])
        halves = coeff_to_slot(ev, raised)
        assert halves.batch == (2, 2)
        refreshed = eval_mod(
            ev, ev.adjust(halves, halves.level - 1), config.evalmod,
            scale / q0, q0 / scale,
        )
        _same_members(
            slot_to_coeff(ev, refreshed),
            [_serial_bootstrap(ctx, ct) for ct in cts],
        )


class TestRotateSum:
    """``rotate_sum`` switches every rotated term in one stacked call;
    it must be, byte for byte, the lifted terms modded down and switched
    one at a time and summed before one mod-down, batched or not."""

    STEPS = {1: [0], 2: [0, 3], 7: [1, 0, 2, 5, 0, 7, 11]}

    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("batched", [False, True], ids=["one", "batch"])
    def test_is_the_serial_sum(self, members, count, batched, counters):
        ctx, cts = members
        ev = ctx.evaluator
        operand = stack(cts) if batched else cts[0]
        plain = [ev.mul_plain(operand, 0.25 * (k + 1)) for k in range(count)]
        terms = [
            (steps, ev.rotate_lifted(ct, [0])[0])
            for steps, ct in zip(self.STEPS[count], plain)
        ]
        if count == 2:  # a term in coefficient form beside an NTT one
            terms[1] = (terms[1][0], terms[1][1].to_coeff())
        want = serial_rotate_sum(ev, terms)
        before = counters("op.keyswitch")["op.keyswitch"]
        got = ev.rotate_sum(terms)
        switched = counters("op.keyswitch")["op.keyswitch"] - before
        same_bytes(got, want)
        rotated = sum(1 for steps, _ in terms if steps % ctx.slots)
        assert switched == rotated * (BATCH if batched else 1)
        if count == 1:  # P·x modded down is x, exactly
            same_bytes(got, plain[0].to_coeff())


class TestOpCounts:
    def test_a_batch_counts_as_its_members(self, boot_chain, counters):
        ctx = CkksContext(boot_chain, seed=5)
        cts = [ctx.encrypt(np.full(ctx.slots, v)) for v in (0.1, 0.2, 0.3)]
        ev = ctx.evaluator
        names = ("op.multiply", "op.keyswitch", "op.rescale", "op.adjust")
        with sanitize.record_ops() as log:
            before = counters(*names)
            x = stack(cts)
            ev.adjust(ev.rescale(ev.multiply(x, x)), x.level - 2)
            after = counters(*names)
            kinds = Counter(o.kind for o in log)
        assert {k: after[k] - before[k] for k in names} == dict.fromkeys(names, 3)
        assert kinds == {"hmul": 3, "rescale": 3, "adjust": 3}


class TestBatchRules:
    def test_stack_refuses_mixed_members(self, boot_chain):
        ctx = CkksContext(boot_chain, seed=7)
        ev = ctx.evaluator
        ct = ctx.encrypt(np.full(ctx.slots, 0.5))
        other = CkksContext(plan_rns_ckks_chain(
            n=64, word_bits=28, level_scale_bits=35.0,
            levels=boot_chain.max_level + 1, base_bits=40.0, ks_digits=3,
        ), seed=7).encrypt(np.full(ctx.slots, 0.5))
        for odd in (
            ev.adjust(ct, ct.level - 1),      # level
            Ciphertext(ct.c0, ct.c1, ct.level, ct.scale * 3),  # scale
            ct.to_ntt(),                      # domain
            other,                            # basis
            stack([ct, ct]),                  # batch shape
        ):
            with pytest.raises(ParameterError):
                stack([ct, odd])

    def test_reading_one_vector_out_of_a_batch_raises(self, boot_chain):
        ctx = CkksContext(boot_chain, seed=7)
        batch = stack([ctx.encrypt(np.full(ctx.slots, v)) for v in (0.1, 0.2)])
        with pytest.raises(ParameterError):
            ctx.decrypt(batch)
        with pytest.raises(ParameterError):
            batch.c0.to_int_coeffs()
        with pytest.raises(ParameterError):
            batch.unstack()[0].unstack()

    def test_members_decrypt_to_their_values(self, boot_chain):
        ctx = CkksContext(boot_chain, seed=7)
        values = [np.full(ctx.slots, v) for v in (0.1, -0.2, 0.3)]
        got = stack([ctx.encrypt(v) for v in values]).unstack()
        for ct, v in zip(got, values):
            assert ctx.precision_bits(ct, v) > 15

    def test_sanitizer_refuses_unpaired_batches(self, boot_chain):
        ctx = CkksContext(boot_chain, seed=7)
        ct = ctx.encrypt(np.full(ctx.slots, 0.5))
        pair = stack([ct, ct])
        was_attached = core.checker() is sanitize
        violations = sanitize.STATS["violations"]
        sanitize.enable()
        try:
            with pytest.raises(InvariantViolation, match="batch"):
                Ciphertext(pair.c0, ct.c1, ct.level, ct.scale)
            assert sanitize.STATS["violations"] == violations + 1
        finally:
            if not was_attached:
                sanitize.disable()

    def test_polynomial_shape_rule(self, boot_chain):
        basis = boot_chain.basis_at(0)
        mat = np.zeros((2, basis.size, basis.n), dtype=np.uint64)
        assert RnsPolynomial(basis, mat, "coeff").batch == (2,)
        with pytest.raises(ParameterError):
            RnsPolynomial(basis, mat[..., 1:, :], "coeff")
