"""The linear-transform plan: hoisted rotations, merged BSGS sums, the
encoded-diagonal cache, and the call budget they add up to.

Everything the plan changes is exact arithmetic rescheduled, so the
tests are bit-for-bit wherever two schedules compute the same thing:

1. **Hoisted rotations** equal rotations done the textbook way — permute
   ``c0`` and ``c1`` in coefficient form, *then* decompose and switch
   (``test_ckks_domains.EagerEvaluator``) — residue for residue, on a uint32-word chain, a uint64-word chain and
   an object-dtype chain.
2. **Block sums** (``bsgs_sums``) decrypt to the cleartext block product
   and agree with separate ``apply_bsgs`` calls added up.
3. **The plan cache** encodes a matrix's diagonals once per level it is
   applied at, and holds at most ``ENCODINGS_KEPT`` sets.
4. **Call budget** (guard): CoeffToSlot + SlotToCoeff on a small ring
   make exactly the transform and keyswitch calls the plan predicts —
   no wall clock; a per-apply encode or an unshared baby step changes
   a count.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.ckks import CkksContext
from repro.ckks.homdft import coeff_to_slot, homdft_matrices, slot_to_coeff
from repro.ckks.linalg import PlainMatrix, bsgs_sums
from repro.nt.ntt import ntt_rows_context
from repro.rns.poly import COEFF, NTT
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from tests.test_ckks_domains import EagerEvaluator

N = 64

#: Chain -> the machine word its keyswitch transforms run in.
CHAINS = {
    "narrow": (
        lambda: plan_bitpacker_chain(
            n=N, word_bits=28, level_scale_bits=30.0, levels=3, base_bits=40.0,
            ks_digits=3,
        ),
        np.dtype(np.uint32),
    ),
    "wide": (
        lambda: plan_rns_ckks_chain(
            n=N, word_bits=60, level_scale_bits=35.0, levels=3, base_bits=50.0,
            ks_digits=2,
        ),
        np.dtype(np.uint64),
    ),
    "big": (
        lambda: plan_rns_ckks_chain(
            n=N, word_bits=62, level_scale_bits=40.0, levels=3, base_bits=61.9,
            ks_digits=2,
        ),
        np.dtype(object),
    ),
}


@pytest.fixture(scope="module", params=list(CHAINS))
def width_ctx(request):
    plan, word = CHAINS[request.param]
    ctx = CkksContext(plan(), seed=17)
    full = ctx.chest.relin_key(ctx.chain.max_level).full
    assert np.dtype(ntt_rows_context(full.moduli, N)._word) == word
    return ctx


@pytest.fixture(scope="module")
def plan_ctx():
    return CkksContext(CHAINS["narrow"][0](), seed=23)


# ----------------------------------------------------------------------
# 1. Hoisted rotations
# ----------------------------------------------------------------------
class TestHoistedRotations:
    STEPS = [1, 2, 3, 7, 31, -1]

    @pytest.mark.parametrize("resident", [COEFF, NTT])
    def test_equal_textbook_rotations_residue_for_residue(
        self, width_ctx, rng, resident
    ):
        ctx = width_ctx
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        if resident == NTT:
            ct = ct.to_ntt()
        hoisted = ctx.evaluator.rotate_hoisted(ct, self.STEPS)
        assert len(hoisted) == len(self.STEPS)
        textbook = EagerEvaluator(ctx)  # permutes first, decomposes second
        for steps, got in zip(self.STEPS, hoisted):
            want = textbook.rotate(ct, steps)
            assert got.c0.domain == got.c1.domain == COEFF
            assert (got.level, got.scale) == (ct.level, ct.scale)
            assert np.array_equal(got.c0.mat, want.c0.mat), steps
            assert np.array_equal(got.c1.mat, want.c1.mat), steps
            alone = ctx.evaluator.rotate(ct, steps)
            assert np.array_equal(got.c0.mat, alone.c0.mat)
            assert np.array_equal(got.c1.mat, alone.c1.mat)

    def test_zero_steps_are_the_input_itself(self, width_ctx, rng):
        ctx = width_ctx
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        same, moved, wrapped = ctx.evaluator.rotate_hoisted(ct, [0, 1, ctx.slots])
        assert same is ct and wrapped is ct and moved is not ct

    def test_conjugate_equals_textbook(self, width_ctx, rng):
        ctx = width_ctx
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        got, want = ctx.evaluator.conjugate(ct), EagerEvaluator(ctx).conjugate(ct)
        assert np.array_equal(got.c0.mat, want.c0.mat)
        assert np.array_equal(got.c1.mat, want.c1.mat)

    def test_each_rotation_is_counted_and_observed_once(
        self, plan_ctx, rng, counters
    ):
        ctx = plan_ctx
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        ctx.evaluator.rotate_hoisted(ct, range(6))  # rotation keys are lazy
        names = ("op.rotate", "op.keyswitch", "kernel.ntt.forward",
                 "kernel.ntt.inverse")
        before = counters(*names)
        with sanitize.record_ops() as log:
            ctx.evaluator.rotate_hoisted(ct, range(6))
            kinds = [entry.kind for entry in log]
        after = counters(*names)
        delta = {name: after[name] - before[name] for name in names}
        # Five logical rotations (step 0 is free), one decomposition.
        assert kinds == ["hrot"] * 5
        assert delta == {
            "op.rotate": 5, "op.keyswitch": 5,
            "kernel.ntt.forward": 1, "kernel.ntt.inverse": 5,
        }


# ----------------------------------------------------------------------
# 2. Block sums
# ----------------------------------------------------------------------
def _tiled(rng, dimension, slots):
    return np.tile(rng.uniform(-1, 1, dimension), slots // dimension)


class TestBlockSums:
    def test_two_term_sum_matches_reference_and_separate_applies(self, ctx, rng):
        d = 16
        a, b = (PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots) for _ in range(2))
        x, y = _tiled(rng, d, ctx.slots), _tiled(rng, d, ctx.slots)
        ct_x, ct_y = ctx.encrypt(x), ctx.encrypt(y)
        ev = ctx.evaluator
        (merged,) = bsgs_sums(ev, [[a, b]], [ct_x, ct_y])
        separate = ev.add(a.apply_bsgs(ev, ct_x), b.apply_bsgs(ev, ct_y))
        assert (merged.level, merged.scale) == (separate.level, separate.scale)
        assert np.max(
            np.abs(ctx.decrypt_real(merged) - ctx.decrypt_real(separate))
        ) < 2.0**-9
        assert ctx.precision_bits(merged, a.reference(x) + b.reference(y)) > 8

    def test_two_by_two_block_shares_its_inputs(self, ctx, rng, counters):
        d, g = 16, 4
        mats = [
            [PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots) for _ in range(2)]
            for _ in range(2)
        ]
        x, y = _tiled(rng, d, ctx.slots), _tiled(rng, d, ctx.slots)
        ev = ctx.evaluator
        before = counters("op.rotate")["op.rotate"]
        outs = bsgs_sums(ev, mats, [ctx.encrypt(x), ctx.encrypt(y)], giant_step=g)
        rotations = counters("op.rotate")["op.rotate"] - before
        for (a, b), out in zip(mats, outs):
            assert ctx.precision_bits(out, a.reference(x) + b.reference(y)) > 8
        # Baby steps once per input, giant steps once per output: four
        # separate applies would take 4 * (3 + 3).
        assert rotations == 2 * (g - 1) + 2 * (d // g - 1)

    def test_complex_block_is_coeff_to_slot(self, rng):
        """CtS through the plan still moves coefficients into slots."""
        chain = plan_bitpacker_chain(
            n=N, word_bits=28, level_scale_bits=35.0, levels=3, base_bits=45.0,
            ks_digits=2,
        )
        ctx = CkksContext(chain, seed=29)
        vals = rng.uniform(-1, 1, ctx.slots)
        ct = ctx.encrypt(vals)
        back = slot_to_coeff(ctx.evaluator, *coeff_to_slot(ctx.evaluator, ct))
        assert back.level == ct.level - 2
        assert ctx.precision_bits(back, vals) > 8

    def test_mismatched_shapes_rejected(self, bp_ctx, rng):
        from repro.errors import ParameterError

        ct = bp_ctx.encrypt(_tiled(rng, 4, bp_ctx.slots))
        four = PlainMatrix(np.eye(4), bp_ctx.slots)
        eight = PlainMatrix(np.eye(8), bp_ctx.slots)
        with pytest.raises(ParameterError):
            bsgs_sums(bp_ctx.evaluator, [[four, eight]], [ct, ct])
        with pytest.raises(ParameterError):
            bsgs_sums(bp_ctx.evaluator, [[four, four]], [ct])
        lower = bp_ctx.evaluator.adjust(ct, ct.level - 1)
        with pytest.raises(ParameterError):
            bsgs_sums(bp_ctx.evaluator, [[four, four]], [ct, lower])


# ----------------------------------------------------------------------
# 3. The plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    @pytest.fixture
    def encodes(self, plan_ctx, monkeypatch):
        calls = []
        encode = plan_ctx.encoder.encode
        monkeypatch.setattr(
            plan_ctx.encoder, "encode",
            lambda values, scale: calls.append(scale) or encode(values, scale),
        )
        return calls

    def test_one_encoding_per_level(self, plan_ctx, rng, encodes):
        ctx, d = plan_ctx, 8
        ev = ctx.evaluator
        pm = PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots)
        top = ctx.encrypt(_tiled(rng, d, ctx.slots))
        lower = ev.adjust(top, top.level - 1)
        encodes.clear()
        first = pm.apply_bsgs(ev, top)
        assert len(encodes) == d
        again = pm.apply_bsgs(ev, top)
        assert len(encodes) == d  # same level: nothing encoded
        assert np.array_equal(first.c0.mat, again.c0.mat)
        pm.apply_bsgs(ev, lower)
        assert len(encodes) == 2 * d  # a second level: a second set
        pm.apply_bsgs(ev, top)
        pm.apply_bsgs(ev, lower)
        assert len(encodes) == 2 * d
        pm.apply_bsgs(ev, top, giant_step=2)  # pre-rotations differ
        assert len(encodes) == 3 * d

    def test_cached_diagonals_equal_per_apply_encoding(self, plan_ctx, rng):
        """The pre-encoded product is the parent's per-apply
        ``mul_plain`` of the pre-rotated diagonal, bit for bit."""
        ctx, d, g = plan_ctx, 8, 3
        ev = ctx.evaluator
        pm = PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots)
        ct = ctx.encrypt(_tiled(rng, d, ctx.slots)).to_ntt()
        plan = pm.encoded(ev, ct.level, g)
        for j in range(d):
            got = ev.mul_encoded(ct, plan[j])
            want = ev.mul_plain(ct, np.roll(pm.diagonals[j], j - j % g))
            assert got.scale == want.scale
            assert np.array_equal(got.c0.mat, want.c0.mat)
            assert np.array_equal(got.c1.mat, want.c1.mat)

    def test_zero_diagonals_are_never_encoded(self, plan_ctx, rng, encodes):
        ctx, d = plan_ctx, 8
        pm = PlainMatrix(np.diag(rng.uniform(0.5, 1.0, d)), ctx.slots)
        assert pm.nonzero.tolist() == [True] + [False] * (d - 1)
        ct = ctx.encrypt(_tiled(rng, d, ctx.slots))
        encodes.clear()
        plan = pm.encoded(ctx.evaluator, ct.level, 3)
        assert len(encodes) == 1
        assert list(plan) == [0]

    def test_cap_is_honoured(self, plan_ctx, rng, encodes):
        ctx, d = plan_ctx, 4
        ev = ctx.evaluator
        pm = PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots)
        top = ctx.chain.max_level
        assert PlainMatrix.ENCODINGS_KEPT == 2
        for level in (top, top - 1, top - 2):
            pm.encoded(ev, level, 2)
        assert len(pm._encoded) == 2
        encodes.clear()
        pm.encoded(ev, top - 1, 2)
        pm.encoded(ev, top - 2, 2)
        assert encodes == []  # the two most recent sets are kept...
        pm.encoded(ev, top, 2)
        assert len(encodes) == d  # ...the oldest was dropped
        assert len(pm._encoded) == 2


# ----------------------------------------------------------------------
# 4. Call budget
# ----------------------------------------------------------------------
@pytest.mark.guard
class TestCallBudget:
    def test_cts_plus_stc_make_exactly_the_planned_calls(self, rng, counters):
        chain = plan_bitpacker_chain(
            n=N, word_bits=28, level_scale_bits=35.0, levels=3, base_bits=45.0,
            ks_digits=2,
        )
        ctx = CkksContext(chain, seed=31)
        ev = ctx.evaluator
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))

        def linear_stages():
            return slot_to_coeff(ev, *coeff_to_slot(ev, ct))

        linear_stages()  # keys, tables and encoded diagonals are lazy
        names = ("kernel.ntt.forward", "kernel.ntt.inverse", "op.keyswitch",
                 "op.rotate")
        before = counters(*names)
        linear_stages()
        after = counters(*names)
        delta = {name: after[name] - before[name] for name in names}

        d = ctx.slots
        assert all(
            m.nonzero.all()
            for m in vars(homdft_matrices(N)).values()
            if isinstance(m, PlainMatrix)
        )
        g = max(1, round(math.sqrt(d)))
        giants_rotated = math.ceil(d / g) - 1

        def block(inputs, outputs):
            """Calls of one ``bsgs_sums``: per input one decomposition
            serving ``g - 1`` baby rotations and one stacked move to NTT
            form; per output each rotated giant step's inner sum brought
            back, decomposed and switched, and one settling of the
            unrotated inner sum."""
            switches = inputs * (g - 1) + outputs * giants_rotated
            return {
                "kernel.ntt.forward": 2 * inputs + outputs * giants_rotated,
                "kernel.ntt.inverse": switches + outputs * (giants_rotated + 1),
                "op.keyswitch": switches,
                "op.rotate": switches,
            }

        conjugate = dict.fromkeys(names, 1)
        cts, stc = block(2, 2), block(2, 1)
        assert delta == {
            name: conjugate[name] + cts[name] + stc[name] for name in names
        }
