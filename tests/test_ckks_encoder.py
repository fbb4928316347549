"""Unit tests for the canonical-embedding encoder."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.encoder import CkksEncoder, encoder_for
from repro.errors import ParameterError

N = 64
SCALE = Fraction(1 << 40)


@pytest.fixture(scope="module")
def enc():
    return CkksEncoder(N)


class TestRoundTrip:
    def test_complex_round_trip(self, enc, rng):
        vals = rng.uniform(-1, 1, enc.slots) + 1j * rng.uniform(-1, 1, enc.slots)
        back = enc.decode(enc.encode(vals, SCALE), SCALE)
        assert np.max(np.abs(back - vals)) < 2.0**-30

    def test_real_round_trip_real_output(self, enc, rng):
        vals = rng.uniform(-1, 1, enc.slots)
        decoded = enc.decode(enc.encode(vals, SCALE), SCALE)
        assert np.max(np.abs(np.imag(decoded))) < 2.0**-30
        assert np.max(np.abs(np.real(decoded) - vals)) < 2.0**-30

    def test_precision_scales_with_scale(self, enc, rng):
        """Encoding error ~ 0.5/scale per coefficient: 2^50 scale must be
        ~2^10 more precise than 2^40."""
        vals = rng.uniform(-1, 1, enc.slots)
        err40 = np.max(
            np.abs(enc.decode(enc.encode(vals, 1 << 40), 1 << 40) - vals)
        )
        err50 = np.max(
            np.abs(enc.decode(enc.encode(vals, 1 << 50), 1 << 50) - vals)
        )
        assert err50 < err40 / 100

    def test_scalar_broadcast(self, enc):
        decoded = enc.decode(enc.encode(0.5, SCALE), SCALE)
        assert np.max(np.abs(decoded - 0.5)) < 2.0**-30

    def test_short_input_zero_padded(self, enc):
        decoded = enc.decode(enc.encode([1.0, -1.0], SCALE), SCALE)
        assert abs(decoded[0] - 1) < 2.0**-30
        assert abs(decoded[1] + 1) < 2.0**-30
        assert np.max(np.abs(decoded[2:])) < 2.0**-30


def _embed(coeffs, n):
    """``Σ_k m_k ζ^{k·5^t}`` for every slot ``t``, straight from the
    definition (O(n²)): no FFT, no twist, no bin map."""
    two_n = 2 * n
    powers = [pow(5, t, two_n) for t in range(n // 2)]
    exponents = np.outer(powers, np.arange(n)) % two_n
    return np.exp(1j * np.pi * exponents / n) @ np.asarray(coeffs, dtype=float)


class TestCanonicalEmbedding:
    """The encoder against the embedding's definition.  Round trips
    cannot see a wrong FFT normalisation made the same way in encode and
    decode; these can."""

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_decode_is_the_embedding(self, n, rng):
        coeffs = [int(v) for v in rng.integers(-(1 << 20), 1 << 20, n)]
        direct = _embed(coeffs, n)
        decoded = CkksEncoder(n).decode(coeffs, 1)
        assert np.max(np.abs(decoded - direct)) < 1e-9 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_encode_inverts_the_embedding(self, n, rng):
        slots = n // 2
        vals = rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
        coeffs = CkksEncoder(n).encode(vals, SCALE)
        # Each coefficient rounds by at most 1/2, so no slot moves by
        # more than n/2 units of the scale.
        scale = float(SCALE)
        assert np.max(np.abs(_embed(coeffs, n) / scale - vals)) <= n / 2 / scale


class TestHomomorphicStructure:
    def test_encode_is_additive(self, enc, rng):
        a = rng.uniform(-1, 1, enc.slots)
        b = rng.uniform(-1, 1, enc.slots)
        ca = enc.encode(a, SCALE)
        cb = enc.encode(b, SCALE)
        summed = [x + y for x, y in zip(ca, cb)]
        decoded = enc.decode(summed, SCALE)
        assert np.max(np.abs(decoded - (a + b))) < 2.0**-28

    def test_polynomial_multiply_is_slotwise(self, enc, rng):
        """The embedding turns negacyclic products into slotwise products
        (CKKS's core property)."""
        from itertools import islice

        from repro.nt.primes import ntt_friendly_primes_below
        from tests.conftest import ntt_product

        a = rng.uniform(-1, 1, enc.slots)
        b = rng.uniform(-1, 1, enc.slots)
        # Scale chosen so product coefficients (~N * S^2) stay below q.
        scale = Fraction(1 << 25)
        ca = enc.encode(a, scale)
        cb = enc.encode(b, scale)
        q = next(islice(ntt_friendly_primes_below(1 << 60, N), 1))
        prod = ntt_product(ca, cb, q, N)
        from repro.nt.crt import centered_vector

        prod_coeffs = centered_vector(prod, q)
        decoded = enc.decode(prod_coeffs, scale * scale)
        assert np.max(np.abs(decoded - a * b)) < 2.0**-16

    def test_rotation_structure(self, enc, rng):
        """Applying X -> X^5 to the plaintext rotates slots by one."""
        vals = rng.uniform(-1, 1, enc.slots)
        coeffs = enc.encode(vals, SCALE)
        two_n = 2 * N
        rotated = [0] * N
        for j, c in enumerate(coeffs):
            t = j * 5 % two_n
            if t < N:
                rotated[t] += c
            else:
                rotated[t - N] -= c
        decoded = np.real(enc.decode(rotated, SCALE))
        assert np.max(np.abs(decoded - np.roll(vals, -1))) < 2.0**-28

    def test_conjugation_structure(self, enc, rng):
        """X -> X^{2N-1} conjugates the slots."""
        vals = rng.uniform(-1, 1, enc.slots) + 1j * rng.uniform(-1, 1, enc.slots)
        coeffs = enc.encode(vals, SCALE)
        two_n = 2 * N
        g = two_n - 1
        conj = [0] * N
        for j, c in enumerate(coeffs):
            t = j * g % two_n
            if t < N:
                conj[t] += c
            else:
                conj[t - N] -= c
        decoded = enc.decode(conj, SCALE)
        assert np.max(np.abs(decoded - np.conj(vals))) < 2.0**-28


class TestValidation:
    def test_too_many_values(self, enc):
        with pytest.raises(ParameterError):
            enc.encode(np.ones(enc.slots + 1), SCALE)

    def test_wrong_coeff_count(self, enc):
        with pytest.raises(ParameterError):
            enc.decode([0] * (N - 1), SCALE)

    def test_bad_degree(self):
        with pytest.raises(ParameterError):
            CkksEncoder(100)

    def test_cache(self):
        assert encoder_for(N) is encoder_for(N)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_encode_decode_property(data):
    enc = encoder_for(32)
    vals = data.draw(
        st.lists(
            st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
            min_size=enc.slots,
            max_size=enc.slots,
        )
    )
    decoded = enc.decode(enc.encode(vals, 1 << 40), 1 << 40)
    assert np.max(np.abs(np.real(decoded) - np.array(vals))) < 2.0**-28
