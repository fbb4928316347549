"""Unit and property tests for the negacyclic NTT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.nt import modmath
from repro.nt.ntt import ntt_context
from repro.nt.primes import ntt_friendly_primes_below


def _schoolbook_negacyclic(a, b, q, n):
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] = (out[k] + a[i] * b[j]) % q
            else:
                out[k - n] = (out[k - n] - a[i] * b[j]) % q
    return out


SMALL_Q = next(ntt_friendly_primes_below(1 << 28, 64))
WIDE_Q = next(ntt_friendly_primes_below(1 << 55, 64))
BIG_Q = next(ntt_friendly_primes_below(1 << 62, 64))


@pytest.mark.parametrize("q", [SMALL_Q, WIDE_Q, BIG_Q])
class TestRoundTrip:
    def test_forward_inverse_identity(self, q):
        n = 64
        ctx = ntt_context(q, n)
        rng = np.random.default_rng(0)
        a = modmath.uniform_mod(q, n, rng)
        back = ctx.inverse(ctx.forward(a))
        assert [int(v) for v in back] == [int(v) for v in a]

    def test_inverse_forward_identity(self, q):
        n = 64
        ctx = ntt_context(q, n)
        rng = np.random.default_rng(1)
        a = modmath.uniform_mod(q, n, rng)
        back = ctx.forward(ctx.inverse(a))
        assert [int(v) for v in back] == [int(v) for v in a]


class TestConvolution:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_matches_schoolbook(self, n):
        q = next(ntt_friendly_primes_below(1 << 28, n))
        ctx = ntt_context(q, n)
        rng = np.random.default_rng(2)
        a = [int(v) for v in rng.integers(0, q, n)]
        b = [int(v) for v in rng.integers(0, q, n)]
        got = ctx.negacyclic_multiply(
            modmath.as_mod_array(a, q), modmath.as_mod_array(b, q)
        )
        assert [int(v) for v in got] == _schoolbook_negacyclic(a, b, q, n)

    def test_x_times_xn_minus_1_wraps_negatively(self):
        """X * X^{n-1} = X^n = -1 in the negacyclic ring."""
        n, q = 16, next(ntt_friendly_primes_below(1 << 20, 16))
        x = [0, 1] + [0] * (n - 2)
        xn1 = [0] * (n - 1) + [1]
        ctx = ntt_context(q, n)
        got = ctx.negacyclic_multiply(
            modmath.as_mod_array(x, q), modmath.as_mod_array(xn1, q)
        )
        assert [int(v) for v in got] == [q - 1] + [0] * (n - 1)

    def test_multiply_by_one(self):
        n, q = 32, next(ntt_friendly_primes_below(1 << 20, 32))
        ctx = ntt_context(q, n)
        rng = np.random.default_rng(3)
        a = modmath.uniform_mod(q, n, rng)
        one = modmath.as_mod_array([1] + [0] * (n - 1), q)
        got = ctx.negacyclic_multiply(a, one)
        assert [int(v) for v in got] == [int(v) for v in a]


class TestLinearity:
    def test_forward_is_linear(self):
        n, q = 64, SMALL_Q
        ctx = ntt_context(q, n)
        rng = np.random.default_rng(4)
        a = modmath.uniform_mod(q, n, rng)
        b = modmath.uniform_mod(q, n, rng)
        lhs = ctx.forward(modmath.mod_add(a, b, q))
        rhs = modmath.mod_add(ctx.forward(a), ctx.forward(b), q)
        assert [int(v) for v in lhs] == [int(v) for v in rhs]

    def test_forward_commutes_with_scalar(self):
        n, q = 64, SMALL_Q
        ctx = ntt_context(q, n)
        rng = np.random.default_rng(5)
        a = modmath.uniform_mod(q, n, rng)
        k = 12345
        lhs = ctx.forward(modmath.mod_scalar_mul(a, k, q))
        rhs = modmath.mod_scalar_mul(ctx.forward(a), k, q)
        assert [int(v) for v in lhs] == [int(v) for v in rhs]


class TestValidation:
    def test_non_ntt_friendly_prime_rejected(self):
        with pytest.raises(ParameterError):
            ntt_context(97, 64)  # 97 ≢ 1 mod 128

    def test_context_cache_returns_same_object(self):
        assert ntt_context(SMALL_Q, 64) is ntt_context(SMALL_Q, 64)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ntt_multiplication_property(data):
    """Property: NTT convolution == schoolbook for random inputs."""
    n = data.draw(st.sampled_from([4, 8, 16]))
    q = next(ntt_friendly_primes_below(1 << 24, n))
    a = data.draw(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    )
    b = data.draw(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    )
    ctx = ntt_context(q, n)
    got = ctx.negacyclic_multiply(
        modmath.as_mod_array(a, q), modmath.as_mod_array(b, q)
    )
    assert [int(v) for v in got] == _schoolbook_negacyclic(a, b, q, n)
