"""Homomorphic-operation correctness for both schemes.

Every test here runs under the ``ctx`` fixture, which parametrizes over a
BitPacker chain and an RNS-CKKS chain — the evaluator must be oblivious
to the level-management scheme (paper Sec. 3.1).
"""

import numpy as np
import pytest

from repro.ckks.ciphertext import Ciphertext
from repro.errors import ScaleMismatchError
from tests.conftest import make_values

TOL_BITS = 10  # precision must be at least scale(30) - 20 bits


def _assert_close(ctx, ct, reference, bits=TOL_BITS):
    assert ctx.precision_bits(ct, reference) > bits


class TestAdditive:
    def test_add(self, ctx, rng):
        a, b = make_values(ctx, rng), make_values(ctx, rng)
        ct = ctx.evaluator.add(ctx.encrypt(a), ctx.encrypt(b))
        _assert_close(ctx, ct, a + b)

    def test_sub(self, ctx, rng):
        a, b = make_values(ctx, rng), make_values(ctx, rng)
        ct = ctx.evaluator.sub(ctx.encrypt(a), ctx.encrypt(b))
        _assert_close(ctx, ct, a - b)

    def test_add_plain(self, ctx, rng):
        a, b = make_values(ctx, rng), make_values(ctx, rng)
        ct = ctx.evaluator.add_plain(ctx.encrypt(a), b)
        _assert_close(ctx, ct, a + b)

    def test_sub_plain(self, ctx, rng):
        a, b = make_values(ctx, rng), make_values(ctx, rng)
        ct = ctx.evaluator.sub_plain(ctx.encrypt(a), b)
        _assert_close(ctx, ct, a - b)

    def test_add_level_mismatch_rejected(self, ctx, rng):
        a = make_values(ctx, rng)
        high = ctx.encrypt(a)
        low = ctx.encrypt(a, level=ctx.chain.max_level - 1)
        with pytest.raises(ScaleMismatchError):
            ctx.evaluator.add(high, low)

    def test_add_scale_mismatch_rejected(self, ctx, rng):
        a = make_values(ctx, rng)
        x = ctx.encrypt(a)
        y = Ciphertext(x.c0, x.c1, x.level, x.scale * 3)
        with pytest.raises(ScaleMismatchError):
            ctx.evaluator.add(x, y)


class TestMultiplicative:
    def test_multiply_rescale(self, ctx, rng):
        a, b = make_values(ctx, rng), make_values(ctx, rng)
        ct = ctx.evaluator.multiply_rescale(ctx.encrypt(a), ctx.encrypt(b))
        assert ct.level == ctx.chain.max_level - 1
        _assert_close(ctx, ct, a * b)

    def test_square_rescale(self, ctx, rng):
        a = make_values(ctx, rng)
        ct = ctx.evaluator.square_rescale(ctx.encrypt(a))
        _assert_close(ctx, ct, a * a)

    def test_square_equals_self_multiply(self, ctx, rng):
        a = make_values(ctx, rng)
        enc = ctx.encrypt(a)
        sq = ctx.evaluator.square_rescale(enc)
        mul = ctx.evaluator.multiply_rescale(enc, enc)
        diff = np.max(np.abs(ctx.decrypt_real(sq) - ctx.decrypt_real(mul)))
        assert diff < 2.0**-TOL_BITS

    def test_mul_plain(self, ctx, rng):
        a, b = make_values(ctx, rng), make_values(ctx, rng)
        ct = ctx.evaluator.rescale(ctx.evaluator.mul_plain(ctx.encrypt(a), b))
        _assert_close(ctx, ct, a * b)

    def test_mul_integer(self, ctx, rng):
        a = make_values(ctx, rng)
        ct = ctx.evaluator.mul_integer(ctx.encrypt(a), 7)
        _assert_close(ctx, ct, 7 * a)

    def test_multiply_chain_to_level_zero(self, ctx, rng):
        a = make_values(ctx, rng) * 0.5
        ct = ctx.encrypt(a)
        ref = a.copy()
        for _ in range(ctx.chain.max_level):
            ct = ctx.evaluator.square_rescale(ct)
            ref = ref * ref
        assert ct.level == 0
        _assert_close(ctx, ct, ref, bits=8)

    def test_multiply_level_mismatch_rejected(self, ctx, rng):
        a = make_values(ctx, rng)
        high = ctx.encrypt(a)
        low = ctx.encrypt(a, level=ctx.chain.max_level - 1)
        with pytest.raises(ScaleMismatchError):
            ctx.evaluator.multiply(high, low)


class TestRotations:
    @pytest.mark.parametrize("steps", [1, 3, 17])
    def test_rotate(self, ctx, rng, steps):
        a = make_values(ctx, rng)
        ct = ctx.evaluator.rotate(ctx.encrypt(a), steps)
        _assert_close(ctx, ct, np.roll(a, -steps))

    def test_rotate_zero_is_identity(self, ctx, rng):
        a = make_values(ctx, rng)
        enc = ctx.encrypt(a)
        assert ctx.evaluator.rotate(enc, 0) is enc

    def test_rotate_full_cycle(self, ctx, rng):
        a = make_values(ctx, rng)
        ct = ctx.evaluator.rotate(ctx.encrypt(a), ctx.slots)
        _assert_close(ctx, ct, a)

    def test_rotate_composition(self, ctx, rng):
        a = make_values(ctx, rng)
        ct = ctx.evaluator.rotate(ctx.evaluator.rotate(ctx.encrypt(a), 2), 3)
        _assert_close(ctx, ct, np.roll(a, -5))

    def test_conjugate(self, ctx, rng):
        vals = rng.uniform(-1, 1, ctx.slots) + 1j * rng.uniform(-1, 1, ctx.slots)
        ct = ctx.evaluator.conjugate(ctx.encrypt(vals))
        got = ctx.decrypt(ct)
        assert np.max(np.abs(got - np.conj(vals))) < 2.0**-TOL_BITS

    def test_rotation_sum_pattern(self, ctx, rng):
        """The rotate-and-add reduction every matvec workload uses."""
        a = make_values(ctx, rng)
        ct = ctx.encrypt(a)
        acc = ct
        ref = a.copy()
        for k in (1, 2):
            acc = ctx.evaluator.add(acc, ctx.evaluator.rotate(ct, k))
            ref = ref + np.roll(a, -k)
        _assert_close(ctx, acc, ref)


class TestComposite:
    def test_x_squared_plus_x(self, ctx, rng):
        """The paper's running example (Sec. 2.2): rescale(x*x) + adjust(x)."""
        a = make_values(ctx, rng)
        x = ctx.encrypt(a)
        sq = ctx.evaluator.square_rescale(x)
        adj = ctx.evaluator.adjust(x, sq.level)
        total = ctx.evaluator.add(sq, adj)
        _assert_close(ctx, total, a * a + a)

    def test_polynomial_evaluation(self, ctx, rng):
        """Degree-3 Horner: the activation pattern of the workloads."""
        a = make_values(ctx, rng) * 0.9
        ev = ctx.evaluator
        x = ctx.encrypt(a)
        # p(x) = 0.5 x^3 - 0.25 x + 0.1, Horner: ((0.5 x) x - 0.25) x + 0.1
        t = ev.rescale(ev.mul_plain(x, 0.5))
        x1 = ev.adjust(x, t.level)
        t = ev.multiply_rescale(t, x1)
        t = ev.sub_plain(t, 0.25)
        x2 = ev.adjust(x, t.level)
        t = ev.multiply_rescale(t, x2)
        t = ev.add_plain(t, 0.1)
        _assert_close(ctx, t, 0.5 * a**3 - 0.25 * a + 0.1, bits=9)

    def test_dot_product_with_plaintext(self, ctx, rng):
        weights = rng.uniform(-1, 1, ctx.slots)
        a = make_values(ctx, rng)
        ev = ctx.evaluator
        ct = ev.rescale(ev.mul_plain(ctx.encrypt(a), weights))
        acc = ct
        ref = a * weights
        shift = 1
        while shift < 4:
            acc = ev.add(acc, ev.rotate(acc, shift))
            ref = ref + np.roll(ref, -shift)
            shift *= 2
        _assert_close(ctx, acc, ref, bits=9)
