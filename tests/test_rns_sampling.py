"""Distribution sanity for the random polynomial samplers."""

from itertools import islice

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.nt.primes import ntt_friendly_primes_below
from repro.rns.basis import RnsBasis
from repro.rns.sampling import (
    DEFAULT_SIGMA,
    sample_gaussian,
    sample_gaussian_coeffs,
    sample_ternary,
    sample_ternary_coeffs,
    sample_uniform,
)

N = 512


@pytest.fixture(scope="module")
def basis():
    return RnsBasis(N, tuple(islice(ntt_friendly_primes_below(1 << 26, N), 2)))


class TestTernary:
    def test_support(self, rng):
        coeffs = sample_ternary_coeffs(N, rng)
        assert set(coeffs) <= {-1, 0, 1}

    def test_roughly_uniform(self, rng):
        coeffs = sample_ternary_coeffs(4096, rng)
        for v in (-1, 0, 1):
            frac = np.count_nonzero(coeffs == v) / 4096
            assert 0.25 < frac < 0.42

    def test_hamming_weight_exact(self, rng):
        coeffs = sample_ternary_coeffs(N, rng, hamming_weight=100)
        assert sum(1 for c in coeffs if c) == 100

    def test_bad_hamming_weight(self, rng):
        with pytest.raises(ParameterError):
            sample_ternary_coeffs(N, rng, hamming_weight=N + 1)

    def test_lifted_polynomial(self, basis, rng):
        poly = sample_ternary(basis, rng)
        assert set(poly.to_int_coeffs()) <= {-1, 0, 1}


class TestGaussian:
    def test_std_near_sigma(self, rng):
        coeffs = sample_gaussian_coeffs(8192, rng)
        std = np.std(coeffs)
        assert 0.85 * DEFAULT_SIGMA < std < 1.15 * DEFAULT_SIGMA

    def test_integer_valued(self, rng):
        assert sample_gaussian_coeffs(64, rng).dtype == np.int64

    def test_magnitude_bounded(self, rng):
        coeffs = sample_gaussian_coeffs(8192, rng)
        assert max(abs(c) for c in coeffs) < 8 * DEFAULT_SIGMA

    def test_lifted_polynomial(self, basis, rng):
        poly = sample_gaussian(basis, rng)
        vals = poly.to_int_coeffs()
        assert max(abs(v) for v in vals) < 8 * DEFAULT_SIGMA


class TestUniform:
    def test_rows_in_range(self, basis, rng):
        poly = sample_uniform(basis, rng)
        for row, q in zip(poly.rows, basis.moduli):
            assert all(0 <= int(v) < q for v in row)

    def test_mean_near_half_q(self, basis, rng):
        poly = sample_uniform(basis, rng)
        for row, q in zip(poly.rows, basis.moduli):
            mean = float(np.mean([int(v) for v in row]))
            assert 0.4 * q < mean < 0.6 * q

    def test_ntt_domain_default(self, basis, rng):
        assert sample_uniform(basis, rng).domain == "ntt"
