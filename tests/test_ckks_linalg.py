"""Homomorphic linear algebra tests: the BSGS diagonal method on one
matrix (:func:`bsgs_sums` over a one-by-one :class:`PlainBlock`)."""

import numpy as np
import pytest

from repro.ckks.linalg import PlainBlock, PlainMatrix, bsgs_sums
from repro.errors import ParameterError
from tests.oracles.plaintext import reference_matvec


def _tiled(rng, dimension, slots, magnitude=1.0):
    """A dimension-periodic slot vector (the packing matvec assumes)."""
    block = rng.uniform(-magnitude, magnitude, dimension)
    return np.tile(block, slots // dimension)


class TestSumSlots:
    def test_full_reduction(self, ctx, rng):
        """An all-ones row sums the first 8 slots into slot 0."""
        vals = np.zeros(ctx.slots)
        vals[:8] = rng.uniform(-1, 1, 8)
        block = PlainBlock([[PlainMatrix(np.ones((8, 8)), ctx.slots)]])
        (ct,) = bsgs_sums(ctx.evaluator, block, [ctx.encrypt(vals)]).unstack()
        got = ctx.decrypt_real(ct)[0]
        assert abs(got - vals.sum()) < 2.0**-10


class TestInnerProduct:
    def test_matches_numpy(self, ctx, rng):
        """``<w, x>`` as the first row of a matrix."""
        d = 16
        vals = np.zeros(ctx.slots)
        vals[:d] = rng.uniform(-1, 1, d)
        weights = np.zeros((d, d))
        weights[0] = rng.uniform(-1, 1, d)
        block = PlainBlock([[PlainMatrix(weights, ctx.slots)]])
        (ct,) = bsgs_sums(ctx.evaluator, block, [ctx.encrypt(vals)]).unstack()
        got = ctx.decrypt_real(ct)[0]
        assert abs(got - weights[0] @ vals[:d]) < 2.0**-9


class TestPlainMatrix:
    def test_diagonal_extraction(self, bp_ctx):
        m = np.arange(16, dtype=float).reshape(4, 4)
        pm = PlainMatrix(m, bp_ctx.slots)
        # diag_1[i] = M[i, i+1 mod 4]
        np.testing.assert_allclose(pm.diagonals[1][:4], [1, 6, 11, 12])

    def test_identity_matvec(self, ctx, rng):
        d = 8
        vals = _tiled(rng, d, ctx.slots)
        block = PlainBlock([[PlainMatrix(np.eye(d), ctx.slots)]])
        (ct,) = bsgs_sums(ctx.evaluator, block, [ctx.encrypt(vals)]).unstack()
        assert ctx.precision_bits(ct, vals) > 9

    @pytest.mark.parametrize("bsgs", [False, True])
    def test_random_matvec_matches_numpy(self, ctx, rng, bsgs):
        """Without the split (``giant_step=1``: one rotation per
        diagonal) and with it (the default giant step)."""
        d = 8
        m = rng.uniform(-1, 1, (d, d))
        vals = _tiled(rng, d, ctx.slots)
        enc = ctx.encrypt(vals)
        block = PlainBlock([[PlainMatrix(m, ctx.slots)]])
        giant_step = None if bsgs else 1
        (ct,) = bsgs_sums(ctx.evaluator, block, [enc], giant_step).unstack()
        assert ctx.precision_bits(ct, reference_matvec(m, vals)) > 8

    def test_bsgs_equals_naive(self, bp_ctx, rng):
        """The baby-step/giant-step split decrypts like the unsplit
        diagonal method, ``giant_step=1`` (``d`` rotations)."""
        d = 16
        m = rng.uniform(-1, 1, (d, d))
        vals = _tiled(rng, d, bp_ctx.slots)
        enc = bp_ctx.encrypt(vals)
        block = PlainBlock([[PlainMatrix(m, bp_ctx.slots)]])
        (naive,) = bsgs_sums(bp_ctx.evaluator, block, [enc], 1).unstack()
        (fast,) = bsgs_sums(bp_ctx.evaluator, block, [enc]).unstack()
        naive, fast = bp_ctx.decrypt_real(naive), bp_ctx.decrypt_real(fast)
        assert np.max(np.abs(naive - fast)) < 2.0**-9

    def test_permutation_matrix(self, ctx, rng):
        """A cyclic permutation matrix must act like a rotation.

        ``np.roll(eye, -1, axis=1)`` puts the 1s at ``M[i, i-1]``, so
        ``(M x)[i] = x[i-1]`` — a roll *right* by one.
        """
        d = 8
        perm = np.roll(np.eye(d), -1, axis=1)
        vals = _tiled(rng, d, ctx.slots)
        block = PlainBlock([[PlainMatrix(perm, ctx.slots)]])
        (ct,) = bsgs_sums(ctx.evaluator, block, [ctx.encrypt(vals)]).unstack()
        assert ctx.precision_bits(ct, np.roll(vals, 1)) > 9

    def test_sparse_matrix_skips_zero_diagonals(self, bp_ctx, rng):
        d = 8
        m = np.diag(rng.uniform(0.5, 1.0, d))  # only diagonal 0 nonzero
        vals = _tiled(rng, d, bp_ctx.slots)
        block = PlainBlock([[PlainMatrix(m, bp_ctx.slots)]])
        (ct,) = bsgs_sums(bp_ctx.evaluator, block, [bp_ctx.encrypt(vals)]).unstack()
        assert bp_ctx.precision_bits(ct, reference_matvec(m, vals)) > 9

    def test_rectangular_rejected(self, bp_ctx):
        with pytest.raises(ParameterError):
            PlainMatrix(np.ones((2, 3)), bp_ctx.slots)

    def test_non_dividing_dimension_rejected(self, bp_ctx):
        with pytest.raises(ParameterError):
            PlainMatrix(np.ones((3, 3)), bp_ctx.slots)

    def test_zero_matrix_rejected(self, bp_ctx, rng):
        pm = PlainMatrix(np.zeros((4, 4)), bp_ctx.slots)
        with pytest.raises(ParameterError):
            PlainBlock([[pm]])

    def test_scheme_agnostic(self, bp_ctx, rns_ctx, rng):
        d = 8
        m = rng.uniform(-1, 1, (d, d))
        block = rng.uniform(-1, 1, d)
        outs = []
        for c in (bp_ctx, rns_ctx):
            vals = np.tile(block, c.slots // d)
            plain = PlainBlock([[PlainMatrix(m, c.slots)]])
            (ct,) = bsgs_sums(c.evaluator, plain, [c.encrypt(vals)]).unstack()
            outs.append(c.decrypt_real(ct)[:d])
        assert np.max(np.abs(outs[0] - outs[1])) < 2.0**-9
