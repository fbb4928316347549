"""Unit and property tests for the three modular-arithmetic backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.nt import modmath

# One representative modulus per backend: narrow uint64, wide
# limb/Shoup uint64, and big-int object arrays.
NARROW_Q = 268435399  # < 2^31
WIDE_Q = (1 << 55) - 55  # in [2^31, 2^61): wide path (prime not required)
BIG_Q = (1 << 61) + 20 * 131072 + 1  # >= 2^61: object path
BACKEND_MODULI = [NARROW_Q, WIDE_Q, BIG_Q]


@pytest.mark.parametrize("q", BACKEND_MODULI)
class TestBackends:
    def _pair(self, q, rng):
        a = modmath.uniform_mod(q, 64, rng)
        b = modmath.uniform_mod(q, 64, rng)
        return a, b

    def test_dtype(self, q):
        expected = object if q >= modmath.BIG_MODULUS_THRESHOLD else np.uint64
        assert modmath.dtype_for_modulus(q) is expected

    def test_add_matches_bigint(self, q, rng=None):
        rng = np.random.default_rng(1)
        a, b = self._pair(q, rng)
        got = modmath.mod_add(a, b, q)
        assert [int(v) for v in got] == [
            (int(x) + int(y)) % q for x, y in zip(a, b)
        ]

    def test_sub_matches_bigint(self, q):
        rng = np.random.default_rng(2)
        a, b = self._pair(q, rng)
        got = modmath.mod_sub(a, b, q)
        assert [int(v) for v in got] == [
            (int(x) - int(y)) % q for x, y in zip(a, b)
        ]

    def test_mul_matches_bigint(self, q):
        rng = np.random.default_rng(3)
        a, b = self._pair(q, rng)
        got = modmath.mod_mul(a, b, q)
        assert [int(v) for v in got] == [
            (int(x) * int(y)) % q for x, y in zip(a, b)
        ]

    def test_neg(self, q):
        rng = np.random.default_rng(4)
        a, _ = self._pair(q, rng)
        got = modmath.mod_neg(a, q)
        assert [int(v) for v in got] == [(-int(x)) % q for x in a]
        # neg(0) must stay 0, not become q
        zero = modmath.zeros(4, q)
        assert [int(v) for v in modmath.mod_neg(zero, q)] == [0, 0, 0, 0]

    def test_scalar_mul(self, q):
        rng = np.random.default_rng(5)
        a, _ = self._pair(q, rng)
        k = q - 3
        got = modmath.mod_scalar_mul(a, k, q)
        assert [int(v) for v in got] == [int(x) * k % q for x in a]

    def test_edge_values(self, q):
        edge = modmath.as_mod_array([q - 1, q - 1, 1, 0], q)
        got = modmath.mod_mul(edge, edge, q)
        expect = [(q - 1) * (q - 1) % q, (q - 1) * (q - 1) % q, 1, 0]
        assert [int(v) for v in got] == expect

    def test_inputs_not_mutated(self, q):
        rng = np.random.default_rng(6)
        a, b = self._pair(q, rng)
        a_copy = [int(v) for v in a]
        modmath.mod_add(a, b, q)
        modmath.mod_mul(a, b, q)
        modmath.mod_neg(a, q)
        assert [int(v) for v in a] == a_copy

    def test_as_mod_array_reduces_negatives(self, q):
        got = modmath.as_mod_array([-1, -q, q + 5], q)
        assert [int(v) for v in got] == [q - 1, 0, 5]

    def test_uniform_range(self, q):
        rng = np.random.default_rng(7)
        samples = modmath.uniform_mod(q, 500, rng)
        assert all(0 <= int(v) < q for v in samples)


class TestAsModArrayExactness:
    """Pins the overflow/precision hazards fixed alongside fhelint."""

    def test_huge_list_ints_stay_exact(self):
        # Values in [2^63, 2^64) used to ride through float64 on the
        # sequence path, rounding the low bits away before reduction.
        q = WIDE_Q
        vals = [2**63 + 1, 2**64 - 1, 2**63 + q]
        got = modmath.as_mod_array(vals, q)
        assert [int(v) for v in got] == [v % q for v in vals]

    def test_huge_negative_ints_stay_exact(self):
        q = WIDE_Q
        vals = [-(2**63) - 1, -(2**64) + 3]
        got = modmath.as_mod_array(vals, q)
        assert [int(v) for v in got] == [v % q for v in vals]

    def test_float_array_rejected(self):
        # A float ndarray has already lost exactness; reducing it would
        # silently bake rounding error into a residue row.
        with pytest.raises(ParameterError, match="float"):
            modmath.as_mod_array(np.array([1.0, 2.0]), NARROW_Q)

    def test_uint64_array_roundtrip(self):
        arr = np.array([0, 1, NARROW_Q - 1, NARROW_Q], dtype=np.uint64)
        got = modmath.as_mod_array(arr, NARROW_Q)
        assert [int(v) for v in got] == [0, 1, NARROW_Q - 1, 0]
        assert got.dtype == np.uint64

    def test_big_modulus_returns_object_rows(self):
        got = modmath.as_mod_array([2**62, -1], BIG_Q)
        assert got.dtype == object
        assert [int(v) for v in got] == [2**62 % BIG_Q, BIG_Q - 1]


class TestModInv:
    def test_inverse(self):
        q = NARROW_Q
        for x in (1, 2, 12345, q - 1):
            inv = modmath.mod_inv(x, q)
            assert x * inv % q == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ParameterError):
            modmath.mod_inv(6, 9)

    def test_composite_modulus_ok_when_coprime(self):
        assert 4 * modmath.mod_inv(4, 9) % 9 == 1


class TestWideMulmodBoundaries:
    """The limb/Shoup wide path must be exact at its extremes."""

    @pytest.mark.parametrize("bits", [31, 32, 33, 40, 48, 55, 59, 60, 61])
    def test_near_threshold_moduli(self, bits):
        q = (1 << bits) - 1
        while not _coprime_ok(q):
            q -= 2
        vals = [q - 1, q - 2, q // 2, q // 2 + 1, 1, 0, 2, 3]
        a = modmath.as_mod_array(vals, q)
        b = modmath.as_mod_array(list(reversed(vals)), q)
        got = modmath.mod_mul(a, b, q)
        assert [int(v) for v in got] == [
            int(x) * int(y) % q for x, y in zip(a, b)
        ]

    def test_rejects_above_64_bits(self):
        with pytest.raises(ParameterError):
            modmath.dtype_for_modulus(1 << 64)


def _coprime_ok(q):
    return q % 2 == 1 and q > 2


@settings(max_examples=120, deadline=None)
@given(
    bits=st.integers(min_value=20, max_value=63),
    data=st.data(),
)
def test_mulmod_property(bits, data):
    """Property: every backend's mod_mul agrees with Python big ints."""
    q = (1 << bits) - data.draw(st.integers(min_value=1, max_value=1 << 10))
    if q < 3:
        q = 3
    xs = data.draw(
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=8)
    )
    ys = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=q - 1),
            min_size=len(xs),
            max_size=len(xs),
        )
    )
    a = modmath.as_mod_array(xs, q)
    b = modmath.as_mod_array(ys, q)
    got = modmath.mod_mul(a, b, q)
    assert [int(v) for v in got] == [x * y % q for x, y in zip(xs, ys)]


@settings(max_examples=80, deadline=None)
@given(
    bits=st.integers(min_value=10, max_value=62),
    k=st.integers(min_value=-(1 << 70), max_value=1 << 70),
    data=st.data(),
)
def test_scalar_mul_property(bits, k, data):
    q = (1 << bits) + 1
    xs = data.draw(
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=6)
    )
    a = modmath.as_mod_array(xs, q)
    got = modmath.mod_scalar_mul(a, k, q)
    assert [int(v) for v in got] == [x * k % q for x in xs]


# ----------------------------------------------------------------------
# The integer-only wide-path primitives, each against Python ints (never
# against another kernel).
# ----------------------------------------------------------------------
U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
#: Moduli hugging both ends of the wide range, where limbs carry.
EDGE_MODULI = [
    (1 << 31) + 11,
    (1 << 31) + 65,
    (1 << 61) - 1,
    (1 << 61) - 31,
]


def _u64(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(U64, U64), min_size=1, max_size=8))
def test_mulhi64_property(pairs):
    xs, ys = zip(*pairs)
    got = modmath.mulhi64(_u64(xs), _u64(ys))
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [x * y >> 64 for x, y in pairs]


def test_mulhi64_extremes_and_broadcast():
    top = (1 << 64) - 1
    xs = [0, 1, top, top, 1 << 32, (1 << 32) - 1]
    ys = [top, top, top, 1, 1 << 32, (1 << 32) + 1]
    got = modmath.mulhi64(_u64(xs), _u64(ys))
    assert [int(v) for v in got] == [x * y >> 64 for x, y in zip(xs, ys)]
    # A (k, 1) constant column against a (k, n) matrix, scalar too.
    col = _u64([top, 3]).reshape(2, 1)
    mat = _u64([[top, 5], [1 << 63, top]])
    assert modmath.mulhi64(mat, col).tolist() == [
        [top * top >> 64, 5 * top >> 64],
        [(3 << 63) >> 64, 3 * top >> 64],
    ]
    assert modmath.mulhi64(mat, np.uint64(top)).tolist() == [
        [v * top >> 64 for v in row] for row in mat.tolist()
    ]


@pytest.mark.parametrize("q", EDGE_MODULI)
def test_shoup_companion_edges(q):
    ws = [0, 1, 2, q // 2, q - 2, q - 1]
    got = modmath.shoup_companion(_u64(ws), q)
    assert [int(v) for v in got] == [(w << 64) // q for w in ws]


@settings(max_examples=150, deadline=None)
@given(bits=st.integers(min_value=2, max_value=61), data=st.data())
def test_shoup_companion_property(bits, data):
    q = data.draw(st.integers(max(2, 1 << (bits - 1)), (1 << bits) - 1))
    ws = data.draw(
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=8)
    )
    got = modmath.shoup_companion(_u64(ws), q)
    assert [int(v) for v in got] == [(w << 64) // q for w in ws]


def test_shoup_companion_per_row_modulus_column():
    moduli = [EDGE_MODULI[0], EDGE_MODULI[2], NARROW_Q, WIDE_Q]
    q_col = _u64(moduli).reshape(-1, 1)
    table = _u64([[0, 1, q - 1, q // 3] for q in moduli])
    got = modmath.shoup_companion(table, q_col)
    assert got.tolist() == [
        [(w << 64) // q for w in row] for row, q in zip(table.tolist(), moduli)
    ]


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from(EDGE_MODULI + [WIDE_Q, NARROW_Q]),
    xs=st.lists(U64, min_size=1, max_size=8),
    data=st.data(),
)
def test_mod_mul_shoup_takes_unreduced_operands(q, xs, data):
    """Any ``x < 2^64`` — not just ``x < q`` — one ``min`` to finish."""
    w = data.draw(st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1))
    got = modmath.mod_mul_shoup(
        _u64(xs + [(1 << 64) - 1]), np.uint64(w), np.uint64((w << 64) // q), q
    )
    assert [int(v) for v in got] == [x * w % q for x in xs + [(1 << 64) - 1]]


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(min_value=2, max_value=30), data=st.data())
def test_half_word_shoup_is_lazy_and_exact(bits, data):
    """β = 2^32: uint32 operands throughout, any ``x < 2^32`` (so every
    value of a ``[0, 4q)`` lazy range), result congruent and in
    ``[0, 2q)``; one fold finishes it.  ``q = 2^30`` is the edge of
    ``4q <= 2^32``."""
    q = data.draw(st.integers(max(2, 1 << (bits - 1)), 1 << bits))
    top = (1 << 32) - 1
    ws = data.draw(
        st.lists(
            st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1),
            min_size=1,
            max_size=6,
        )
    )
    xs = [
        data.draw(st.sampled_from([0, 1, q - 1, min(4 * q - 1, top), top]) | st.integers(0, top))
        for _ in ws
    ]
    w = np.array(ws, dtype=np.uint32)
    companion = modmath.shoup_companion(w.astype(np.uint64), q, beta_bits=32)
    assert [int(v) for v in companion] == [(v << 32) // q for v in ws]
    x = np.array(xs, dtype=np.uint32)
    hi = modmath.mulhi32(x, companion.astype(np.uint32))
    assert hi.dtype == np.uint32
    assert [int(v) for v in hi] == [a * int(c) >> 32 for a, c in zip(xs, companion)]
    lazy = modmath.mod_mul_shoup_lazy(
        x, w, companion.astype(np.uint32), np.uint32(q)
    )
    assert lazy.dtype == np.uint32
    for got, a, b in zip(lazy.tolist(), xs, ws):
        assert got < 2 * q and got % q == a * b % q
    folded = modmath.lazy_fold(lazy, np.uint32(q))
    assert folded.tolist() == [a * b % q for a, b in zip(xs, ws)]


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64, object])
def test_lazy_fold_picks_the_value_below_m(dtype):
    m = {np.uint32: 1 << 31, np.uint64: 1 << 63, object: (1 << 64) - 59}[dtype]
    values = [0, 1, m - 1, m, m + 1, 2 * m - 1]
    x = np.array(values, dtype=dtype)
    bound = m if dtype is object else dtype(m)
    want = [v % m for v in values]
    assert modmath.lazy_fold(x, bound).tolist() == want
    assert x.tolist() == values  # pure unless told where to write
    out = np.empty_like(x)
    assert modmath.lazy_fold(x, bound, out=out) is out
    assert out.tolist() == want
    assert modmath.lazy_fold(x, bound, out=x).tolist() == want


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_wide_mul_with_mixed_width_modulus_column(data):
    """The (k, n) x (k, 1) broadcast the RNS layers use: rows of very
    different widths share one call (a wide row forces the wide kernel
    on its narrow neighbours)."""
    moduli = [EDGE_MODULI[0], EDGE_MODULI[3], NARROW_Q, WIDE_Q, (1 << 36) - 5]
    rows = [
        data.draw(
            st.lists(
                st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1),
                min_size=4,
                max_size=4,
            )
        )
        for q in moduli
        for _ in range(2)
    ]
    a, b = _u64(rows[0::2]), _u64(rows[1::2])
    q_col = _u64(moduli).reshape(-1, 1)
    want = [
        [x * y % q for x, y in zip(ra, rb)]
        for ra, rb, q in zip(a.tolist(), b.tolist(), moduli)
    ]
    assert modmath.mod_mul(a, b, q_col).tolist() == want
    r64, r64_shoup = modmath.two64_mod(q_col)
    assert r64.ravel().tolist() == [(1 << 64) % q for q in moduli]
    assert r64_shoup.ravel().tolist() == [
        ((1 << 64) % q << 64) // q for q in moduli
    ]


@pytest.mark.parametrize("q", [(1 << 31) - 1, (1 << 61) - 1])
def test_add_sub_neg_at_the_corners(q):
    """Branch-free add/sub/neg at ``a, b in {0, q-1}``, just under the
    narrow and wide limits (the only places the ``min`` could pick the
    wrong candidate)."""
    corners = [0, q - 1]
    a = _u64([x for x in corners for _ in corners])
    b = _u64([y for _ in corners for y in corners])
    for modulus in (q, _u64([q] * 4)):
        assert [int(v) for v in modmath.mod_add(a, b, modulus)] == [
            (int(x) + int(y)) % q for x, y in zip(a, b)
        ]
        assert [int(v) for v in modmath.mod_sub(a, b, modulus)] == [
            (int(x) - int(y)) % q for x, y in zip(a, b)
        ]
        assert [int(v) for v in modmath.mod_neg(a, modulus)] == [
            -int(x) % q for x in a
        ]
