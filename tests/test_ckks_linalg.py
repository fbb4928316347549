"""Homomorphic linear algebra tests (BSGS matvec, reductions)."""

import numpy as np
import pytest

from repro.ckks.linalg import PlainMatrix, inner_product_plain, matvec, sum_slots
from repro.errors import ParameterError
from tests.conftest import make_values
from tests.oracles.plaintext import reference_matvec


def _tiled(rng, dimension, slots, magnitude=1.0):
    """A dimension-periodic slot vector (the packing matvec assumes)."""
    block = rng.uniform(-magnitude, magnitude, dimension)
    return np.tile(block, slots // dimension)


class TestSumSlots:
    def test_full_reduction(self, ctx, rng):
        vals = np.zeros(ctx.slots)
        vals[:8] = rng.uniform(-1, 1, 8)
        ct = sum_slots(ctx.evaluator, ctx.encrypt(vals), 8)
        got = ctx.decrypt_real(ct)[0]
        assert abs(got - vals.sum()) < 2.0**-10

    def test_non_power_of_two_rejected(self, ctx, rng):
        ct = ctx.encrypt(make_values(ctx, rng))
        with pytest.raises(ParameterError):
            sum_slots(ctx.evaluator, ct, 6)

    def test_count_one_is_identity(self, ctx, rng):
        vals = make_values(ctx, rng)
        ct = ctx.encrypt(vals)
        assert sum_slots(ctx.evaluator, ct, 1) is ct


class TestInnerProduct:
    def test_matches_numpy(self, ctx, rng):
        d = 16
        vals = np.zeros(ctx.slots)
        vals[:d] = rng.uniform(-1, 1, d)
        weights = np.zeros(ctx.slots)
        weights[:d] = rng.uniform(-1, 1, d)
        ct = inner_product_plain(ctx.evaluator, ctx.encrypt(vals), weights, d)
        got = ctx.decrypt_real(ct)[0]
        assert abs(got - weights[:d] @ vals[:d]) < 2.0**-9


class TestPlainMatrix:
    def test_diagonal_extraction(self, bp_ctx):
        m = np.arange(16, dtype=float).reshape(4, 4)
        pm = PlainMatrix(m, bp_ctx.slots)
        # diag_1[i] = M[i, i+1 mod 4]
        np.testing.assert_allclose(pm.diagonals[1][:4], [1, 6, 11, 12])

    def test_identity_matvec(self, ctx, rng):
        d = 8
        vals = _tiled(rng, d, ctx.slots)
        ct = matvec(ctx.evaluator, np.eye(d), ctx.encrypt(vals), ctx.slots)
        assert ctx.precision_bits(ct, vals) > 9

    @pytest.mark.parametrize("bsgs", [False, True])
    def test_random_matvec_matches_numpy(self, ctx, rng, bsgs):
        """Without the split (``giant_step=1``: one rotation per
        diagonal) and with it (``matvec``'s default giant step)."""
        d = 8
        m = rng.uniform(-1, 1, (d, d))
        vals = _tiled(rng, d, ctx.slots)
        enc = ctx.encrypt(vals)
        if bsgs:
            ct = matvec(ctx.evaluator, m, enc, ctx.slots)
        else:
            ct = PlainMatrix(m, ctx.slots).apply_bsgs(ctx.evaluator, enc, 1)
        assert ctx.precision_bits(ct, reference_matvec(m, vals)) > 8

    def test_bsgs_equals_naive(self, bp_ctx, rng):
        """The baby-step/giant-step split decrypts like the unsplit
        diagonal method, ``giant_step=1`` (``d`` rotations)."""
        d = 16
        m = rng.uniform(-1, 1, (d, d))
        vals = _tiled(rng, d, bp_ctx.slots)
        enc = bp_ctx.encrypt(vals)
        pm = PlainMatrix(m, bp_ctx.slots)
        naive = bp_ctx.decrypt_real(pm.apply_bsgs(bp_ctx.evaluator, enc, 1))
        fast = bp_ctx.decrypt_real(pm.apply_bsgs(bp_ctx.evaluator, enc))
        assert np.max(np.abs(naive - fast)) < 2.0**-9

    def test_permutation_matrix(self, ctx, rng):
        """A cyclic permutation matrix must act like a rotation.

        ``np.roll(eye, -1, axis=1)`` puts the 1s at ``M[i, i-1]``, so
        ``(M x)[i] = x[i-1]`` — a roll *right* by one.
        """
        d = 8
        perm = np.roll(np.eye(d), -1, axis=1)
        vals = _tiled(rng, d, ctx.slots)
        ct = matvec(ctx.evaluator, perm, ctx.encrypt(vals), ctx.slots)
        assert ctx.precision_bits(ct, np.roll(vals, 1)) > 9

    def test_sparse_matrix_skips_zero_diagonals(self, bp_ctx, rng):
        d = 8
        m = np.diag(rng.uniform(0.5, 1.0, d))  # only diagonal 0 nonzero
        vals = _tiled(rng, d, bp_ctx.slots)
        pm = PlainMatrix(m, bp_ctx.slots)
        ct = pm.apply_bsgs(bp_ctx.evaluator, bp_ctx.encrypt(vals))
        assert bp_ctx.precision_bits(ct, reference_matvec(m, vals)) > 9

    def test_rectangular_rejected(self, bp_ctx):
        with pytest.raises(ParameterError):
            PlainMatrix(np.ones((2, 3)), bp_ctx.slots)

    def test_non_dividing_dimension_rejected(self, bp_ctx):
        with pytest.raises(ParameterError):
            PlainMatrix(np.ones((3, 3)), bp_ctx.slots)

    def test_zero_matrix_rejected(self, bp_ctx, rng):
        pm = PlainMatrix(np.zeros((4, 4)), bp_ctx.slots)
        ct = bp_ctx.encrypt(_tiled(rng, 4, bp_ctx.slots))
        with pytest.raises(ParameterError):
            pm.apply_bsgs(bp_ctx.evaluator, ct)

    def test_scheme_agnostic(self, bp_ctx, rns_ctx, rng):
        d = 8
        m = rng.uniform(-1, 1, (d, d))
        block = rng.uniform(-1, 1, d)
        outs = []
        for c in (bp_ctx, rns_ctx):
            vals = np.tile(block, c.slots // d)
            ct = matvec(c.evaluator, m, c.encrypt(vals), c.slots)
            outs.append(c.decrypt_real(ct)[:d])
        assert np.max(np.abs(outs[0] - outs[1])) < 2.0**-9
