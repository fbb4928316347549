"""The linear-transform plan: hoisted rotations, double-hoisted BSGS
sums, the encoded-diagonal cache, and the call budget they add up to.

Everything the plan changes is exact arithmetic rescheduled, so the
tests are bit-for-bit wherever two schedules compute the same thing:

1. **Hoisted rotations** (``rotate_lifted``, modded down) equal
   rotations done the textbook way — permute ``c0`` and ``c1`` in
   coefficient form, *then* decompose and switch
   (``test_ckks_domains.EagerEvaluator``) — residue for residue, on a
   uint32-word chain and a uint64-word chain.
2. **Block sums** (``bsgs_sums``) decrypt to the cleartext block product
   and agree with one-matrix products added up.  They are, byte for
   byte, the serial double-hoisted flow of :mod:`tests.oracles.bsgs`
   (one input, baby, row and giant step at a time), on 2 x 2 and 1 x 2
   blocks of bp28, rns28 and rns60 chains.  Against the textbook flow
   built from public ops (:func:`_per_term_bsgs`: every rotation its
   own mod-down) they round differently: within 2^-20 after decryption,
   and CtS → StC is at least as precise over seeds.  Mismatched input
   scales are refused before any work.
3. **The plan cache** encodes a matrix's diagonals once per level it is
   applied at, over the key-switch basis ``M ∪ P``, and holds at most
   ``ENCODINGS_KEPT`` sets.
4. **Call budget** (guard): CoeffToSlot + SlotToCoeff on a small ring
   make exactly the transform and keyswitch calls the plan predicts —
   no wall clock; a per-apply encode, an unshared baby step or a baby
   mod-down changes a count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.ckks import CkksContext, stack
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.evaluator import _mod_down
from repro.ckks.homdft import coeff_to_slot, homdft_matrices, slot_to_coeff
from repro.ckks.linalg import PlainBlock, PlainMatrix, bsgs_sums
from repro.errors import ParameterError, ScaleMismatchError
from repro.nt.ntt import ntt_rows_context
from repro.rns.convert import scale_up
from repro.rns.poly import COEFF, NTT, RnsPolynomial
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from tests.oracles.bsgs import row_plan, serial_bsgs
from tests.oracles.plaintext import reference_matvec
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
        ev, specials = ctx.evaluator, ctx.chain.special_moduli
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        if resident == NTT:
            ct = ct.to_ntt()
        lifted = ev.rotate_lifted(ct, self.STEPS)
        assert len(lifted) == len(self.STEPS)
        textbook = EagerEvaluator(ctx)  # permutes first, decomposes second
        for steps, acc in zip(self.STEPS, lifted):
            assert acc.c0.domain == acc.c1.domain == NTT
            assert acc.basis.moduli == ct.basis.moduli + specials
            assert (acc.level, acc.scale) == (ct.level, ct.scale)
            got = _mod_down((acc.c0, acc.c1), specials)
            want = textbook.rotate(ct, steps)
            alone = ev.rotate(ct, steps)
            assert alone.c0.domain == alone.c1.domain == COEFF
            for g, w, a in zip(got, (want.c0, want.c1), (alone.c0, alone.c1)):
                assert np.array_equal(g.mat, w.mat), steps
                assert np.array_equal(g.mat, a.mat), steps

    def test_zero_steps_are_the_input_itself(self, width_ctx, rng):
        ctx = width_ctx
        ev, specials = ctx.evaluator, ctx.chain.special_moduli
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        assert ev.rotate(ct, 0) is ct and ev.rotate(ct, ctx.slots) is ct
        assert ev.rotate(ct, 1) is not ct
        same, _, wrapped = ev.rotate_lifted(ct, [0, 1, ctx.slots])
        for lifted in (same, wrapped):  # ct times P, exactly
            for got, poly in zip((lifted.c0, lifted.c1), (ct.c0, ct.c1)):
                assert np.array_equal(got.mat, scale_up(poly.to_ntt(), specials).mat)

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
        ctx.evaluator.rotate_lifted(ct, range(6))  # rotation keys are lazy
        names = ("op.rotate", "op.keyswitch", "kernel.ntt.forward",
                 "kernel.ntt.inverse")
        before = counters(*names)
        with sanitize.record_ops() as log:
            ctx.evaluator.rotate_lifted(ct, range(6))
            kinds = [entry.kind for entry in log]
        after = counters(*names)
        delta = {name: after[name] - before[name] for name in names}
        # Five logical rotations (step 0 is free), one decomposition
        # (one forward) beside ``c0, c1`` moving to NTT form (one more),
        # and no mod-down.
        assert kinds == ["hrot"] * 5
        assert delta == {
            "op.rotate": 5, "op.keyswitch": 5,
            "kernel.ntt.forward": 2, "kernel.ntt.inverse": 0,
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
        (merged,) = bsgs_sums(ev, PlainBlock([[a, b]]), [ct_x, ct_y]).unstack()
        (ax,) = bsgs_sums(ev, PlainBlock([[a]]), [ct_x]).unstack()
        (by,) = bsgs_sums(ev, PlainBlock([[b]]), [ct_y]).unstack()
        separate = ev.add(ax, by)
        assert (merged.level, merged.scale) == (separate.level, separate.scale)
        assert np.max(
            np.abs(ctx.decrypt_real(merged) - ctx.decrypt_real(separate))
        ) < 2.0**-9
        want = reference_matvec(a.matrix, x) + reference_matvec(b.matrix, y)
        assert ctx.precision_bits(merged, want) > 8

    def test_two_by_two_block_shares_its_inputs(self, ctx, rng, counters):
        d, g = 16, 4
        mats = [
            [PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots) for _ in range(2)]
            for _ in range(2)
        ]
        x, y = _tiled(rng, d, ctx.slots), _tiled(rng, d, ctx.slots)
        ev = ctx.evaluator
        before = counters("op.rotate")["op.rotate"]
        outs = bsgs_sums(
            ev, PlainBlock(mats), [ctx.encrypt(x), ctx.encrypt(y)], giant_step=g
        ).unstack()
        rotations = counters("op.rotate")["op.rotate"] - before
        for (a, b), out in zip(mats, outs):
            want = reference_matvec(a.matrix, x) + reference_matvec(b.matrix, y)
            assert ctx.precision_bits(out, want) > 8
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
        back = slot_to_coeff(ctx.evaluator, coeff_to_slot(ctx.evaluator, ct))
        assert back.level == ct.level - 2
        assert ctx.precision_bits(back, vals) > 8

    def test_mismatched_shapes_rejected(self, bp_ctx, rng):
        from repro.errors import ParameterError

        ct = bp_ctx.encrypt(_tiled(rng, 4, bp_ctx.slots))
        four = PlainMatrix(np.eye(4), bp_ctx.slots)
        eight = PlainMatrix(np.eye(8), bp_ctx.slots)
        with pytest.raises(ParameterError):
            PlainBlock([[four, eight]])
        with pytest.raises(ParameterError):
            bsgs_sums(bp_ctx.evaluator, PlainBlock([[four, four]]), [ct])
        lower = bp_ctx.evaluator.adjust(ct, ct.level - 1)
        with pytest.raises(ParameterError):
            bsgs_sums(bp_ctx.evaluator, PlainBlock([[four, four]]), [ct, lower])


def _per_term_bsgs(ev, rows, inputs, g):
    """``bsgs_sums`` the textbook way, from public ops only: every baby
    and giant step a separate ``rotate``, every diagonal a
    ``mul_encoded`` (its plaintext restricted to the level's basis)
    added on, every rotation its own mod-down.  One output per row, in
    a list: the precision reference, not a byte oracle."""
    d, level = rows[0][0].dimension, inputs[0].level
    moduli = ev.chain.moduli_at(level)
    babies = [[ev.rotate(ct, b) for b in range(min(g, d))] for ct in inputs]
    outs = []
    for row in rows:
        plans = [
            {j: replace(pt, poly=pt.poly.restricted(moduli))
             for j, pt in row_plan(ev, m, level, g).items()}
            for m in row
        ]
        acc = None
        for i in range(0, d, g):
            inner = None
            for plan, baby in zip(plans, babies):
                for b in range(min(g, d - i)):
                    if i + b in plan:
                        term = ev.mul_encoded(baby[b], plan[i + b])
                        inner = term if inner is None else ev.add(inner, term)
            if inner is not None:
                outer = ev.rotate(inner, i)
                acc = outer if acc is None else ev.add(acc, outer)
        outs.append(ev.rescale(acc))
    return outs


class TestFusedTransform:
    """The fused plan on both word widths: the serial double-hoisted
    flow byte for byte with one giant step, the textbook flow
    (:func:`_per_term_bsgs`) within rounding with several."""

    D = 8

    def _block(self, ctx, rng):
        mats = [
            [PlainMatrix(rng.uniform(-1, 1, (self.D, self.D)), ctx.slots)
             for _ in range(2)]
            for _ in range(2)
        ]
        inputs = [ctx.encrypt(_tiled(rng, self.D, ctx.slots)) for _ in range(2)]
        return mats, inputs

    def test_single_giant_step_is_bit_identical(self, width_ctx, rng):
        ctx, ev = width_ctx, width_ctx.evaluator
        mats, inputs = self._block(ctx, rng)
        got = bsgs_sums(ev, PlainBlock(mats), inputs, giant_step=self.D).unstack()
        want = serial_bsgs(ev, mats, inputs, self.D)
        for out, ref in zip(got, want, strict=True):
            same_bytes(out, ref)

    def test_giant_steps_decrypt_within_rounding(self, width_ctx, rng):
        ctx, ev = width_ctx, width_ctx.evaluator
        mats, inputs = self._block(ctx, rng)
        got = bsgs_sums(ev, PlainBlock(mats), inputs, giant_step=2).unstack()
        want = _per_term_bsgs(ev, mats, inputs, 2)
        for out, ref in zip(got, want):
            assert (out.level, out.scale) == (ref.level, ref.scale)
            gap = np.abs(ctx.decrypt_real(out) - ctx.decrypt_real(ref))
            assert np.max(gap) < 2.0**-20

    @pytest.mark.parametrize("chain", ["bp28", "rns60"])
    def test_cts_stc_is_as_precise_as_the_textbook_flow(self, chain):
        """CtS → StC double-hoisted rounds once per output where the
        textbook flow rounds once per rotation: over seven inputs its
        median error is no larger."""
        plan, word, scale_bits, base_bits = BLOCK_CHAINS[chain]
        ctx = CkksContext(
            plan(n=N, word_bits=word, level_scale_bits=scale_bits, levels=3,
                 base_bits=base_bits, ks_digits=2),
            seed=41,
        )
        ev, mats = ctx.evaluator, homdft_matrices(N)
        g = round(math.sqrt(ctx.slots))
        errors = []
        for seed in range(7):
            values = np.random.default_rng(seed).uniform(-1, 1, ctx.slots)
            ct = ctx.encrypt(values)
            halves = _per_term_bsgs(
                ev, [[mats.p1, mats.q1], [mats.p2, mats.q2]],
                [ct, ev.conjugate(ct)], g,
            )
            (textbook,) = _per_term_bsgs(ev, [[mats.v1, mats.v2]], halves, g)
            hoisted = slot_to_coeff(ev, coeff_to_slot(ev, ct))
            errors.append([
                np.max(np.abs(ctx.decrypt_real(out) - values))
                for out in (hoisted, textbook)
            ])
        hoisted_median, textbook_median = np.median(errors, axis=0)
        assert hoisted_median <= textbook_median
        assert hoisted_median < 2.0**-15

    def test_scale_mismatch_is_caught_before_any_work(self, plan_ctx, rng, counters):
        ctx, ev = plan_ctx, plan_ctx.evaluator
        (row, _), (x, y) = self._block(ctx, rng)
        tripled = Ciphertext(y.c0, y.c1, y.level, y.scale * 3)
        block = PlainBlock([row])
        bsgs_sums(ev, block, [x, y])  # rotation keys are lazy
        before = counters("op.rotate", "kernel.ntt.forward")
        with pytest.raises(ScaleMismatchError):
            bsgs_sums(ev, block, [x, tripled])
        assert counters("op.rotate", "kernel.ntt.forward") == before

    def test_fused_ops_check_scales(self, plan_ctx, rng):
        ctx, ev = plan_ctx, plan_ctx.evaluator
        (row, _), (fresh, _) = self._block(ctx, rng)
        plan = row_plan(ev, row[0], fresh.level, 2)
        (x,) = ev.rotate_lifted(fresh, [0])  # P·fresh over M ∪ P
        tripled = Ciphertext(x.c0, x.c1, x.level, x.scale * 3)
        with pytest.raises(ScaleMismatchError):
            ev.mul_encoded_sum([(x, plan[0]), (tripled, plan[1])])
        with pytest.raises(ScaleMismatchError):
            ev.rotate_sum([(0, x), (1, tripled)])
        (lower,) = ev.rotate_lifted(ev.adjust(fresh, fresh.level - 1), [0])
        with pytest.raises(ScaleMismatchError):
            ev.rotate_sum([(0, x), (1, lower)])

    def test_rotate_sum_refuses_unlifted_terms(self, plan_ctx, rng):
        """``rotate_sum`` takes P-lifted terms over ``M ∪ P`` only: a
        ciphertext over its level's basis is refused at entry."""
        ctx, ev = plan_ctx, plan_ctx.evaluator
        _, (fresh, _) = self._block(ctx, rng)
        for terms in ([(0, fresh)], [(1, fresh)], [(0, fresh), (1, fresh)]):
            with pytest.raises(ParameterError, match="P-lifted"):
                ev.rotate_sum(terms)


#: (planner, word bits, level scale bits, base bits): the narrow paths of
#: both schemes and the wide one.
BLOCK_CHAINS = {
    "bp28": (plan_bitpacker_chain, 28, 30.0, 40.0),
    "rns28": (plan_rns_ckks_chain, 28, 30.0, 40.0),
    "rns60": (plan_rns_ckks_chain, 60, 40.0, 60.0),
}


@pytest.fixture(scope="module", params=list(BLOCK_CHAINS))
def block_ctx(request):
    plan, word, scale_bits, base_bits = BLOCK_CHAINS[request.param]
    return CkksContext(
        plan(n=N, word_bits=word, level_scale_bits=scale_bits, levels=3,
             base_bits=base_bits, ks_digits=2),
        seed=37,
    )


def same_bytes(got: Ciphertext, want: Ciphertext) -> None:
    assert (got.level, got.scale, got.basis) == (want.level, want.scale, want.basis)
    for g, w in ((got.c0, want.c0), (got.c1, want.c1)):
        assert g.domain == w.domain
        assert g.mat.shape == w.mat.shape
        assert g.mat.tobytes() == w.mat.tobytes()


class TestSerialFlow:
    """``bsgs_sums`` runs every input, every row and every giant step of
    a block in stacked calls; it must be, byte for byte, the serial
    double-hoisted flow (:func:`tests.oracles.bsgs.serial_bsgs`): one
    lifted baby rotation at a time, one product at a time, one giant
    step's keyswitch at a time, one mod-down per row."""

    D = 16

    def _block(self, ctx, seed: int, rows: int, sparse: bool = False):
        rng = np.random.default_rng(seed)
        mats = [
            [
                PlainMatrix(
                    rng.uniform(-1, 1, (self.D, self.D))
                    + 1j * rng.uniform(-1, 1, (self.D, self.D)),
                    ctx.slots,
                )
                for _ in range(2)
            ]
            for _ in range(rows)
        ]
        if sparse:  # a row that holds only diagonal 0 beside a dense one
            mats[0][0] = PlainMatrix(np.diag(rng.uniform(0.5, 1, self.D)), ctx.slots)
            mats[0][1] = PlainMatrix(np.eye(self.D), ctx.slots)
        inputs = [ctx.encrypt(_tiled(rng, self.D, ctx.slots)) for _ in range(2)]
        return mats, inputs

    @pytest.mark.parametrize("rows", [2, 1], ids=["2x2", "1x2"])
    @pytest.mark.parametrize("g", [2, 4])
    def test_block_is_the_serial_flow(self, block_ctx, g, rows):
        ctx, ev = block_ctx, block_ctx.evaluator
        mats, inputs = self._block(ctx, 10 * g + rows, rows)
        got = bsgs_sums(ev, PlainBlock(mats), inputs, giant_step=g)
        assert got.batch == (rows,)
        want = serial_bsgs(ev, mats, inputs, g)
        for out, ref in zip(got.unstack(), want, strict=True):
            same_bytes(out, ref)

    def test_rows_with_other_zero_diagonals_are_the_serial_flow(
        self, block_ctx, counters
    ):
        """The same bytes, but not the same work: the sparse row (only
        diagonal 0 of each input, so only the unrotated giant step) runs
        on the dense row's union — 16 diagonals of 2 inputs at 4 giant
        steps — and the op log and counters show the difference."""
        ctx, ev = block_ctx, block_ctx.evaluator
        mats, inputs = self._block(ctx, 5, 2, sparse=True)
        block = PlainBlock(mats)
        bsgs_sums(ev, block, inputs, giant_step=4)  # keys are lazy
        names = ("op.rotate", "op.keyswitch")
        runs = []
        for run in (
            lambda: bsgs_sums(ev, block, inputs, giant_step=4).unstack(),
            lambda: serial_bsgs(ev, mats, inputs, 4),
        ):
            before = counters(*names)
            with sanitize.record_ops() as log:
                outs = run()
                kinds = Counter(o.kind for o in log)
            after = counters(*names)
            runs.append((outs, kinds, {k: after[k] - before[k] for k in names}))
        (got, got_kinds, got_ops), (want, want_kinds, want_ops) = runs
        for out, ref in zip(got, want, strict=True):
            same_bytes(out, ref)
        # Row 0 pays 32 products where it needs 2; their merges (4 inner
        # sums of 8 terms and 3 giant-step adds, against 1 inner add);
        # and the 3 giant rotations, each one keyswitch.
        assert got_kinds - want_kinds == Counter(pmul=30, hadd=30, hrot=3)
        assert not want_kinds - got_kinds
        assert {k: got_ops[k] - want_ops[k] for k in names} == dict.fromkeys(names, 3)

    def test_inputs_given_as_one_batch(self, block_ctx):
        ctx, ev = block_ctx, block_ctx.evaluator
        mats, inputs = self._block(ctx, 6, 2)
        same_bytes(
            bsgs_sums(ev, PlainBlock(mats), stack(inputs), giant_step=4),
            bsgs_sums(ev, PlainBlock(mats), inputs, giant_step=4),
        )

    def test_op_log_and_counts_are_the_serial_flows(self, plan_ctx, counters):
        ctx, ev = plan_ctx, plan_ctx.evaluator
        mats, inputs = self._block(ctx, 7, 2)
        block = PlainBlock(mats)
        bsgs_sums(ev, block, inputs, giant_step=4)  # keys are lazy
        names = ("op.rotate", "op.keyswitch", "op.rescale")
        logs, deltas = [], []
        for run in (
            lambda: bsgs_sums(ev, block, inputs, giant_step=4),
            lambda: serial_bsgs(ev, mats, inputs, 4),
        ):
            before = counters(*names)
            with sanitize.record_ops() as log:
                run()
                logs.append(Counter((o.kind, o.level, o.scale_bits) for o in log))
            after = counters(*names)
            deltas.append({k: after[k] - before[k] for k in names})
        assert logs[0] == logs[1]
        assert deltas[0] == deltas[1]
        assert deltas[0]["op.keyswitch"] == 2 * 3 + 2 * 3


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
        block = PlainBlock([[PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots)]])
        top = ctx.encrypt(_tiled(rng, d, ctx.slots))
        lower = ev.adjust(top, top.level - 1)
        encodes.clear()
        first = bsgs_sums(ev, block, [top])
        assert len(encodes) == d
        again = bsgs_sums(ev, block, [top])
        assert len(encodes) == d  # same level: nothing encoded
        assert np.array_equal(first.c0.mat, again.c0.mat)
        bsgs_sums(ev, block, [lower])
        assert len(encodes) == 2 * d  # a second level: a second set
        bsgs_sums(ev, block, [top])
        bsgs_sums(ev, block, [lower])
        assert len(encodes) == 2 * d
        bsgs_sums(ev, block, [top], giant_step=2)  # pre-rotations differ
        assert len(encodes) == 3 * d

    def test_cached_diagonals_equal_per_apply_encoding(self, plan_ctx, rng):
        """The pre-encoded diagonal is the pre-rotated one encoded over
        ``M ∪ P``; on ``M``'s rows its product is the per-apply
        ``mul_plain``, bit for bit."""
        ctx, d, g = plan_ctx, 8, 3
        ev = ctx.evaluator
        pm = PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots)
        ct = ctx.encrypt(_tiled(rng, d, ctx.slots)).to_ntt()
        plan = row_plan(ev, pm, ct.level, g)
        full = ct.basis.extended(ctx.chain.special_moduli)
        for j in range(d):
            values = np.roll(pm.diagonals[j], j - j % g)
            encoded = ctx.encoder.encode(values, plan[j].scale)
            assert plan[j].poly.domain == NTT
            assert np.array_equal(
                plan[j].poly.mat,
                RnsPolynomial.from_int_coeffs(full, encoded).to_ntt().mat,
            )
            on_m = replace(plan[j], poly=plan[j].poly.restricted(ct.basis.moduli))
            got = ev.mul_encoded(ct, on_m)
            want = ev.mul_plain(ct, values)
            assert got.scale == want.scale
            assert np.array_equal(got.c0.mat, want.c0.mat)
            assert np.array_equal(got.c1.mat, want.c1.mat)

    def test_zero_diagonals_are_never_encoded(self, plan_ctx, rng, encodes):
        ctx, d = plan_ctx, 8
        pm = PlainMatrix(np.diag(rng.uniform(0.5, 1.0, d)), ctx.slots)
        assert pm.nonzero.tolist() == [True] + [False] * (d - 1)
        ct = ctx.encrypt(_tiled(rng, d, ctx.slots))
        encodes.clear()
        plan = row_plan(ctx.evaluator, pm, ct.level, 3)
        assert len(encodes) == 1
        assert list(plan) == [0]

    def test_cap_is_honoured(self, plan_ctx, rng, encodes):
        ctx, d = plan_ctx, 4
        ev = ctx.evaluator
        block = PlainBlock([[PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots)]])
        top = ctx.chain.max_level
        assert PlainBlock.ENCODINGS_KEPT == 2
        for level in (top, top - 1, top - 2):
            block.encoded(ev, level, 2)
        assert len(block._encoded) == 2
        encodes.clear()
        block.encoded(ev, top - 1, 2)
        block.encoded(ev, top - 2, 2)
        assert encodes == []  # the two most recent sets are kept...
        block.encoded(ev, top, 2)
        assert len(encodes) == d  # ...the oldest was dropped
        assert len(block._encoded) == 2

    def test_a_block_stacks_its_rows_once(self, plan_ctx, rng, encodes):
        """A 2 x 2 block encodes each of its four matrices' diagonals
        once, as one ``(2, R, n)`` plaintext per input and diagonal, and
        a second apply encodes nothing."""
        ctx, d = plan_ctx, 8
        ev = ctx.evaluator
        mats = [
            [PlainMatrix(rng.uniform(-1, 1, (d, d)), ctx.slots) for _ in range(2)]
            for _ in range(2)
        ]
        block = PlainBlock(mats)
        inputs = [ctx.encrypt(_tiled(rng, d, ctx.slots)) for _ in range(2)]
        encodes.clear()
        first = bsgs_sums(ev, block, inputs)
        assert len(encodes) == 4 * d
        plans = block.encoded(ev, inputs[0].level, 3)
        basis = ctx.chain.basis_at(inputs[0].level).extended(
            ctx.chain.special_moduli
        )
        assert [sorted(plan) for plan in plans] == [list(range(d))] * 2
        assert plans[1][5].poly.mat.shape == (2, basis.size, basis.n)
        again = bsgs_sums(ev, block, inputs)
        assert len(encodes) == 4 * d
        assert first.c0.mat.tobytes() == again.c0.mat.tobytes()
        for r, row in enumerate(mats):
            for t, m in enumerate(row):
                alone = row_plan(ev, m, inputs[0].level, 3)[5]
                assert np.array_equal(plans[t][5].poly.mat[r], alone.poly.mat)


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
            return slot_to_coeff(ev, coeff_to_slot(ev, ct))

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
            """Calls of one ``bsgs_sums``, however many inputs and
            outputs: the inputs moved to NTT form and their baby steps'
            digits extended, one forward each, serving ``g - 1``
            rotations that stop at their lifted accumulators (no
            mod-down, no transform back); every output's rotated giant
            steps' ``c1`` modded down in one inverse and switched in one
            stacked keyswitch (one forward), and one mod-down for all
            outputs.  The op counters still read each member's
            rotations and keyswitches."""
            switches = inputs * (g - 1) + outputs * giants_rotated
            return {
                "kernel.ntt.forward": 3,
                "kernel.ntt.inverse": 2,
                "op.keyswitch": switches,
                "op.rotate": switches,
            }

        conjugate = dict.fromkeys(names, 1)
        cts, stc = block(2, 2), block(2, 1)
        assert delta == {
            name: conjugate[name] + cts[name] + stc[name] for name in names
        }
