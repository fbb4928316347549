"""Unit tests for CRT reconstruction and centered representatives."""

from itertools import islice
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.nt.crt import (
    centered,
    centered_int64,
    centered_vector,
    crt_reconstruct,
    crt_reconstruct_vector,
)
from repro.nt.primes import ntt_friendly_primes_below

MODULI = (257, 263, 269)


class TestCrtReconstruct:
    def test_round_trip(self):
        from math import prod

        big_q = prod(MODULI)
        for x in (0, 1, 12345, big_q - 1, big_q // 2):
            residues = [x % q for q in MODULI]
            assert crt_reconstruct(residues, MODULI) == x

    def test_single_modulus(self):
        assert crt_reconstruct([5], [17]) == 5

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            crt_reconstruct([1, 2], [3])

    def test_vector_matches_scalar(self):
        xs = [0, 5, 1000, 17000]
        rows = [[x % q for x in xs] for q in MODULI]
        got = crt_reconstruct_vector(rows, MODULI)
        assert got == [crt_reconstruct([r[i] for r in rows], MODULI) for i in range(4)]


class TestCentered:
    def test_small_positive_stays(self):
        assert centered(3, 17) == 3

    def test_large_maps_negative(self):
        assert centered(16, 17) == -1
        assert centered(9, 17) == -8

    def test_half_boundary(self):
        # q//2 stays positive (representative range is (-q/2, q/2]).
        assert centered(8, 17) == 8

    def test_even_modulus_boundary(self):
        assert centered(8, 16) == 8
        assert centered(9, 16) == -7

    def test_vector(self):
        assert centered_vector([0, 1, 16, 9], 17) == [0, 1, -1, -8]

    def test_unreduced_inputs(self):
        assert centered(17 + 3, 17) == 3
        assert centered(-1, 17) == -1


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=-(10**12), max_value=10**12),
)
def test_crt_centered_property(x):
    """Property: centered CRT reconstruction inverts residue splitting."""
    from math import prod

    big_q = prod(MODULI)
    residues = [x % q for q in MODULI]
    rebuilt = crt_reconstruct(residues, MODULI)
    assert rebuilt == x % big_q
    assert centered(rebuilt, big_q) == ((x + big_q // 2) % big_q) - big_q // 2


# ----------------------------------------------------------------------
# The int64 decode path: a fast base conversion to 2^64, checked on
# every row, with the Python-int CRT as oracle and fallback.
# ----------------------------------------------------------------------
def _rows(xs, moduli) -> np.ndarray:
    return np.array([[x % q for x in xs] for q in moduli], dtype=np.uint64)


def _wide_primes(bits: int, count: int) -> tuple[int, ...]:
    return tuple(islice(ntt_friendly_primes_below(1 << bits, 16), count))


#: Q above 2^64 on each width class, and Q below 2^63 (direct path).
INT64_BASES = {
    "narrow-q>2^64": _wide_primes(28, 3),
    "wide-q>2^64": _wide_primes(60, 2),
    "mixed-q>2^64": _wide_primes(36, 1) + _wide_primes(28, 2),
    "narrow-q<2^63": _wide_primes(28, 2),
    "wide-q<2^63": _wide_primes(60, 1),
}


@pytest.mark.parametrize("moduli", INT64_BASES.values(), ids=INT64_BASES.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_centered_int64_matches_the_oracle(moduli, data):
    big_q = prod(moduli)
    bound = min((1 << 63) - 1, big_q // 2)
    edges = [0, 1, -1, bound, -bound]
    xs = data.draw(
        st.lists(st.sampled_from(edges) | st.integers(-bound, bound),
                 min_size=1, max_size=12)
    )
    mat = _rows(xs, moduli)
    got = centered_int64(mat, moduli)
    assert got is not None and got.dtype == np.int64
    want = centered_vector(crt_reconstruct_vector(mat, moduli), big_q)
    assert got.tolist() == want == xs


def test_centered_int64_declines_a_coefficient_beyond_int64():
    """A centered value at or beyond ±2^63 (an un-rescaled product at
    scale², say) fails the row check and goes to the oracle."""
    moduli = INT64_BASES["wide-q>2^64"]
    for x in (1 << 63, -(1 << 63) - 1, 1 << 70, -(1 << 100)):
        assert centered_int64(_rows([5, x, -7], moduli), moduli) is None
    # -2^63 itself is an int64.
    assert centered_int64(_rows([-(1 << 63)], moduli), moduli).tolist() == [
        -(1 << 63)
    ]


def test_centered_int64_declines_q_between_2_63_and_2_64():
    moduli = _wide_primes(32, 2)
    assert (1 << 63) <= prod(moduli) < (1 << 64)
    assert centered_int64(_rows([3, -3], moduli), moduli) is None


def test_int64_cast_agrees_with_the_int_path():
    """The decoder casts an int64 vector straight to float64; it must
    round exactly as Python's correctly rounded ``float(int)`` does."""
    top = (1 << 63) - 1
    values = [0, 1, -1, top, -top - 1, (1 << 53) + 1, -(1 << 53) - 1,
              (1 << 62) + 3, 123456789012345678, -987654321098765432]
    cast = np.array(values, dtype=np.int64).astype(np.float64)
    assert cast.tolist() == [float(v) for v in values]
