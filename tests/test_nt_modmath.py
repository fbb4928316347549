"""Unit and property tests for the three modular-arithmetic backends,
and for the ufunc buffer size the module sets at import."""

import subprocess
import sys
import threading
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends as backends
from repro.errors import ParameterError
from repro.nt import modmath
from repro.nt.ntt import forward_rows, inverse_rows
from repro.nt.primes import ntt_friendly_primes_below

# One representative modulus per word class, narrow uint64 and wide
# limb/Shoup uint64, and the largest modulus the wide class admits.
NARROW_Q = 268435399  # < 2^31
WIDE_Q = (1 << 55) - 55  # in [2^31, 2^61): wide path (prime not required)
TOP_Q = (1 << 61) - 1  # the top of the wide range
BACKEND_MODULI = [NARROW_Q, WIDE_Q, TOP_Q]


@pytest.mark.parametrize("q", BACKEND_MODULI)
class TestBackends:
    def _pair(self, q, rng):
        a = modmath.uniform_mod(q, 64, rng)
        b = modmath.uniform_mod(q, 64, rng)
        return a, b

    def test_dtype(self, q):
        rng = np.random.default_rng(0)
        for residues in (
            modmath.zeros(4, q),
            modmath.as_mod_array([q + 1, -1], q),
            modmath.uniform_mod(q, 4, rng),
        ):
            assert residues.dtype == np.uint64
        assert modmath.backend_kind(q) == ("narrow" if q < 1 << 31 else "wide")

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
        got = modmath.mod_mul(a, np.uint64(k), q)  # a scalar broadcasts
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


#: Every modulus lies in [2, 2^61): just outside either end, and far out.
OUT_OF_RANGE = [0, 1, -5, 1 << 61, (1 << 61) + 1, 1 << 64]


class TestModulusBound:
    """The residue constructors reject a modulus outside ``[2, 2^61)``
    with a ``ParameterError`` naming it, and accept the top one."""

    CONSTRUCTORS = {
        "as_mod_array": lambda q: modmath.as_mod_array([3, -1], q),
        "zeros": lambda q: modmath.zeros(4, q),
        "uniform_mod": lambda q: modmath.uniform_mod(q, 4, np.random.default_rng(0)),
    }

    @pytest.mark.parametrize("q", OUT_OF_RANGE)
    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_out_of_range_modulus_rejected(self, name, q):
        with pytest.raises(ParameterError, match=f"modulus {q} "):
            self.CONSTRUCTORS[name](q)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_top_of_the_wide_range_accepted(self, name):
        got = self.CONSTRUCTORS[name](TOP_Q)
        assert got.dtype == np.uint64 and all(int(v) < TOP_Q for v in got)
        assert modmath.backend_kind(TOP_Q) == "wide"


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
        with pytest.raises(ParameterError, match=str(1 << 64)):
            modmath.backend_kind(1 << 64)


def _coprime_ok(q):
    return q % 2 == 1 and q > 2


@settings(max_examples=120, deadline=None)
@given(
    bits=st.integers(min_value=20, max_value=61),
    data=st.data(),
)
def test_mulmod_property(bits, data):
    """Property: both word classes' mod_mul agrees with Python big ints
    (the top of the wide range is pinned by ``TestWideMulmodBoundaries``)."""
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
    bits=st.integers(min_value=10, max_value=60),
    k=st.integers(min_value=-(1 << 70), max_value=1 << 70),
    data=st.data(),
)
def test_scalar_mul_property(bits, k, data):
    q = (1 << bits) + 1
    xs = data.draw(
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=6)
    )
    a = modmath.as_mod_array(xs, q)
    got = modmath.mod_mul(a, np.uint64(k % q), q)
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


#: Every operand the β = 2^62 multiply accepts: ``x < 2^63``.
U63 = st.integers(min_value=0, max_value=(1 << 63) - 1)
#: Moduli for the β = 2^62 kernel: the top of the narrow range (uint64
#: NTT stacks), the wide range, and just below 2^61.
SHOUP62_MODULI = (
    st.integers((1 << 30) + 1, (1 << 31) - 1)
    | st.integers(1 << 31, (1 << 60) - 1)
    | st.integers((1 << 61) - (1 << 12), (1 << 61) - 1)
)


@settings(max_examples=300, deadline=None)
@given(q=SHOUP62_MODULI, data=st.data())
def test_shoup62_is_lazy_and_exact(q, data):
    """β = 2^62: three limb products, any ``x < 2^63``, the result
    congruent and in ``[0, 4q)``; two folds finish it.  The limbs are
    the β = 2^64 companion shifted right by two."""
    ws = data.draw(
        st.lists(
            st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1),
            min_size=1,
            max_size=6,
        )
    )
    top = (1 << 63) - 1
    xs = [
        data.draw(st.sampled_from([0, 1, q - 1, 4 * q - 1, top]) | U63)
        for _ in ws
    ]
    w, x = _u64(ws), _u64(xs)
    w_h, w_l = modmath.shoup_limbs(w, q)
    assert [(int(h) << 31) | int(lo) for h, lo in zip(w_h, w_l)] == [
        (v << 62) // q for v in ws
    ]
    assert max(int(v) for v in w_l) < 1 << 31
    lazy = modmath.mod_mul_shoup62_lazy(x, w, (w_h, w_l), np.uint64(q))
    assert lazy.dtype == np.uint64
    for got, a, b in zip(lazy.tolist(), xs, ws):
        assert got < 4 * q and got % q == a * b % q
    folded = modmath.mod_mul_shoup(x, w, (w_h, w_l), q)
    assert folded.tolist() == [a * b % q for a, b in zip(xs, ws)]


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from(EDGE_MODULI + [WIDE_Q, NARROW_Q]),
    xs=st.lists(U63, min_size=1, max_size=8),
    data=st.data(),
)
def test_mod_mul_shoup_takes_unreduced_operands(q, xs, data):
    """Any ``x < 2^63`` — not just ``x < q`` — against a constant and its
    limbs, broadcast as a scalar; ``2^63 - 1`` is the contract's edge."""
    w = data.draw(st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1))
    xs = xs + [(1 << 63) - 1]
    c = (w << 62) // q
    got = modmath.mod_mul_shoup(
        _u64(xs), np.uint64(w), (np.uint64(c >> 31), np.uint64(c & (2**31 - 1))), q
    )
    assert [int(v) for v in got] == [x * w % q for x in xs]


def test_shoup62_limbs_against_a_matrix_keep_the_input():
    """A ``(k, 1)`` constant column against a ``(k, n)`` matrix (the
    rowwise-scalar shape), and a column against one row (the fold
    shape, where the result is wider than ``x``): both exact, neither
    writes into ``x``."""
    moduli = [EDGE_MODULI[0], EDGE_MODULI[2], NARROW_Q, WIDE_Q]
    q_col = _u64(moduli).reshape(-1, 1)
    w_col = _u64([q - 2 for q in moduli]).reshape(-1, 1)
    limbs = modmath.shoup_limbs(w_col, q_col)
    mat = _u64([[0, 1, q - 1, (1 << 63) - 1] for q in moduli])
    before = mat.copy()
    got = modmath.mod_mul_shoup(mat, w_col, limbs, q_col)
    assert got.tolist() == [
        [x * (q - 2) % q for x in row] for row, q in zip(mat.tolist(), moduli)
    ]
    row = mat[3]
    wide = modmath.mod_mul_shoup(row, w_col, limbs, q_col)
    assert wide.tolist() == [
        [x * (q - 2) % q for x in row.tolist()] for q in moduli
    ]
    assert np.array_equal(mat, before)


#: Every operand the uint32 multiply accepts: ``x < 2^31`` (its int32 view).
U31 = st.integers(min_value=0, max_value=(1 << 31) - 1)


def _float_quotient_case(q: int, xs: list[int], ws: list[int]) -> None:
    """``mod_mul_float_lazy`` on ``xs`` against ``ws`` mod ``q``: the
    stored ``w/q`` is at most the exact quotient, the result is uint32,
    congruent and in ``[0, 2q)``, and one fold finishes it."""
    w = np.array(ws, dtype=np.uint32)
    w_over_q = modmath.float_quotient(w, q)
    assert w_over_q.dtype == np.float64
    assert all(Fraction(float(c)) <= Fraction(v, q) for c, v in zip(w_over_q, ws))
    x = np.array(xs, dtype=np.uint32)
    lazy = modmath.mod_mul_float_lazy(x, w, w_over_q, np.uint32(q))
    assert lazy.dtype == np.uint32
    for got, a, b in zip(lazy.tolist(), xs, ws):
        assert got < 2 * q and got % q == a * b % q
    folded = modmath.lazy_fold(lazy, np.uint32(q))
    assert folded.tolist() == [a * b % q for a, b in zip(xs, ws)]


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(min_value=2, max_value=29), data=st.data())
def test_float_quotient_multiply_is_lazy_and_exact(bits, data):
    """The uint32 stage loops' multiply, quotient from float64: any
    ``x < 2^31`` — every value of a ``[0, 4q)`` lazy range, the exact
    multiples of ``q`` included — against ``w ∈ {0, 1, q − 1}`` and
    random constants; ``q = 2^29`` is the edge of ``4q ≤ 2^31``."""
    q = data.draw(st.integers(max(2, 1 << (bits - 1)), 1 << bits))
    ws = data.draw(
        st.lists(
            st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1),
            min_size=1,
            max_size=6,
        )
    )
    edges = [0, q, 2 * q, 3 * q, 4 * q - 1, (1 << 31) - 1]
    xs = [data.draw(st.sampled_from(edges) | U31) for _ in ws]
    _float_quotient_case(q, xs, ws)


@pytest.mark.parametrize("q", [2, 3, 268369921, (1 << 29) - 3, 1 << 29])
def test_float_quotient_multiply_at_the_multiples(q):
    """Where the estimate is tightest: ``x·w/q`` an integer (``x`` a
    multiple of ``q``, or ``w = 0``) leaves ``q̂`` one short, never over,
    so the result is ``q`` (or 0), inside ``[0, 2q)``."""
    xs = [0, q, 2 * q, 3 * q, 4 * q - 1]
    for w in (0, 1, q // 2, q - 1):
        _float_quotient_case(q, xs, [w] * len(xs))


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_lazy_fold_picks_the_value_below_m(dtype):
    m = {np.uint32: 1 << 31, np.uint64: 1 << 63}[dtype]
    values = [0, 1, m - 1, m, m + 1, 2 * m - 1]
    x = np.array(values, dtype=dtype)
    bound = dtype(m)
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
    r64, (r64_h, r64_l) = modmath.two64_mod(q_col)
    assert r64.ravel().tolist() == [(1 << 64) % q for q in moduli]
    limbs = zip(r64_h.ravel().tolist(), r64_l.ravel().tolist())
    assert [(h << 31) | lo for h, lo in limbs] == [
        ((1 << 64) % q << 62) // q for q in moduli
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


@pytest.mark.parametrize("q", BACKEND_MODULI)
def test_additive_ops_write_a_fresh_array_at_the_boundaries(q):
    """The additive ops write their ``min`` into their own temporary:
    the result aliases neither input, the inputs keep their bytes, and
    the values match big integers where the sum is 0, q - 1, q, 2q - 2
    and the difference 0 - (q - 1); against a scalar ``q``, a ``(k, 1)``
    column, and 0-d or numpy-scalar operands (numpy hands back a scalar
    there, so no ``out=`` runs)."""
    pairs = [(0, 0), (0, q - 1), (1, q - 1), (q - 1, q - 1), (q - 2, 1),
             (q - 1, 0), (1, 0)]
    row_a, row_b = _u64([x for x, _ in pairs]), _u64([y for _, y in pairs])
    col = _u64([[q], [q]])
    cases = [
        (row_a, row_b, q),  # scalar q
        (np.stack([row_a, row_b]), np.stack([row_b, row_a]), col),
    ]
    for a, b, modulus in cases:
        a_bytes, b_bytes = a.tobytes(), b.tobytes()
        ints_a, ints_b = a.ravel().tolist(), b.ravel().tolist()
        for got, want in (
            (modmath.mod_add(a, b, modulus),
             [(x + y) % q for x, y in zip(ints_a, ints_b)]),
            (modmath.mod_sub(a, b, modulus),
             [(x - y) % q for x, y in zip(ints_a, ints_b)]),
            (modmath.mod_neg(a, modulus), [-x % q for x in ints_a]),
        ):
            assert got.dtype == np.uint64 and got.shape == a.shape
            assert not np.shares_memory(got, a)
            assert not np.shares_memory(got, b)
            assert got.ravel().tolist() == want
        assert a.tobytes() == a_bytes and b.tobytes() == b_bytes
    # 0-d arrays and numpy scalars, with the modulus as an int and as a
    # uint64 scalar.
    with np.errstate(over="ignore"):
        for x, y in pairs:
            for a, b in ((np.uint64(x), np.uint64(y)),
                         (_u64(x), _u64(y))):
                for modulus in (q, np.uint64(q)):
                    assert int(modmath.mod_add(a, b, modulus)) == (x + y) % q
                    assert int(modmath.mod_sub(a, b, modulus)) == (x - y) % q
                    assert int(modmath.mod_neg(a, modulus)) == -x % q
                    assert int(a) == x and int(b) == y


# ----------------------------------------------------------------------
# ``mod_reduce``: ``%`` on rows shorter than the ufunc buffer, ``//``
# on the rest
# ----------------------------------------------------------------------
#: Narrow and wide moduli: 3, the largest narrow one (2^31 - 1) and the
#: largest prime below 2^61 (2^61 - 1).
REDUCE_MODULI = [3, NARROW_Q, (1 << 31) - 1, WIDE_Q, (1 << 61) - 1]


def _reduce_rows(n: int) -> np.ndarray:
    """One row per :data:`REDUCE_MODULI` entry: 0, 1, q - 1, q, q + 1,
    the largest multiple k·q below 2^64 and k·q - 1, 2^62 and 2^64 - 1,
    cycled along ``n`` from a per-row offset."""
    rows = []
    for i, q in enumerate(REDUCE_MODULI):
        kq = ((1 << 64) - 1) // q * q
        edges = [0, 1, q - 1, q, q + 1, kq - 1, kq, 1 << 62, (1 << 64) - 1]
        rows.append(np.roll(np.resize(_u64(edges), n), i))
    return np.stack(rows)


def _assert_reduced(got, x, moduli):
    assert got.dtype == np.uint64 and got.shape == x.shape
    want = [[v % q for v in row] for row, q in zip(x.tolist(), moduli)]
    assert got.tolist() == want


@pytest.mark.parametrize(
    "n",
    [1, 64, modmath.UFUNC_BUFSIZE - 1, modmath.UFUNC_BUFSIZE, 8192],
)
def test_mod_reduce_matches_python_ints(n):
    """``x mod q`` on both sides of the gate (the row length against
    ``UFUNC_BUFSIZE``), for a scalar modulus (int and uint64), a ``(k, 1)``
    column and a column against a ``(B, k, n)`` stack; ``x`` keeps its
    bytes."""
    assert np.getbufsize() == modmath.UFUNC_BUFSIZE
    x = _reduce_rows(n)
    x_bytes = x.tobytes()
    k = len(REDUCE_MODULI)
    for q in REDUCE_MODULI:
        for modulus in (q, np.uint64(q)):
            _assert_reduced(modmath.mod_reduce(x, modulus), x, [q] * k)
    col = _u64(REDUCE_MODULI).reshape(-1, 1)
    got = modmath.mod_reduce(x, col)
    assert not np.shares_memory(got, x)
    _assert_reduced(got, x, REDUCE_MODULI)
    stack = np.stack([x, np.roll(x, 1, axis=-1)])
    got = modmath.mod_reduce(stack, col)
    assert got.shape == stack.shape
    for member, want in zip(got, stack):
        _assert_reduced(member, want, REDUCE_MODULI)
    assert x.tobytes() == x_bytes


def test_mod_reduce_on_views_in_place_and_on_scalars():
    """A strided half-row view ``UFUNC_BUFSIZE`` long takes ``//`` and leaves
    its base alone; ``out=x`` writes in place on both branches; 0-d and
    numpy-scalar operands take ``%``."""
    col = _u64(REDUCE_MODULI).reshape(-1, 1)
    base = _reduce_rows(2 * modmath.UFUNC_BUFSIZE)
    base_bytes = base.tobytes()
    for half in (base[:, ::2], base[:, 1::2]):
        assert half.shape[-1] == modmath.UFUNC_BUFSIZE
        _assert_reduced(modmath.mod_reduce(half, col), half, REDUCE_MODULI)
    assert base.tobytes() == base_bytes
    for n in (64, modmath.UFUNC_BUFSIZE):
        x = _reduce_rows(n)
        want = x.copy()
        got = modmath.mod_reduce(x, col, out=x)
        assert got is x
        _assert_reduced(x, want, REDUCE_MODULI)
    for q in (NARROW_Q, (1 << 61) - 1):
        for x in (np.uint64((1 << 64) - 1), _u64((1 << 64) - 1)):
            assert int(modmath.mod_reduce(x, np.uint64(q))) == ((1 << 64) - 1) % q


# ----------------------------------------------------------------------
# The import-time ufunc buffer (``modmath.UFUNC_BUFSIZE``)
# ----------------------------------------------------------------------
#: numpy's own ufunc buffer size, where nothing has set one.
NUMPY_BUFSIZE = 8192


def test_importing_repro_sets_the_ufunc_buffer():
    """A fresh interpreter: ``import repro`` alone leaves numpy's buffer
    at the module's constant."""
    code = (
        "import numpy as np, repro\n"
        "from repro.nt import modmath\n"
        "print(np.getbufsize(), modmath.UFUNC_BUFSIZE)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    got, constant = map(int, done.stdout.split())
    assert got == constant != NUMPY_BUFSIZE


def _kernel_outputs() -> list[np.ndarray]:
    """The NTT both ways on a ``(16, 4096)`` narrow and a ``(10, 4096)``
    wide stack, and the fold, pointwise multiply and fused
    multiply-accumulate at n = 4096: strided stage views, broadcast
    modulus and twiddle columns.  The fold, pointwise multiply and
    multiply-accumulate on an n = 8192 narrow stack take
    :func:`~repro.nt.modmath.mod_reduce`'s ``//`` branch and are held
    to ``np.remainder`` here."""
    n = 4096
    rng = np.random.default_rng(4096)
    out = _long_row_outputs(rng)
    for kind, bound, k in (("narrow", 1 << 28, 16), ("wide", 1 << 60, 10)):
        moduli = tuple(islice(ntt_friendly_primes_below(bound, n), k))
        q_col = _u64(moduli).reshape(-1, 1)
        a, b, acc = (rng.integers(0, q_col, size=(k, n), dtype=np.uint64)
                     for _ in range(3))
        stack = rng.integers(0, 1 << 59, size=(k + 1, n), dtype=np.uint64)
        weights = rng.integers(0, q_col, size=(k, k + 1), dtype=np.uint64)
        out += [
            forward_rows(a, moduli),
            inverse_rows(a, moduli),
            backends.bconv_fold(stack, weights, moduli, 1 << 59, kind),
            backends.pointwise_mul(a, b, q_col, kind),
            backends.pointwise_mul_acc(acc, a, b, q_col, kind),
        ]
    return out


def _long_row_outputs(rng) -> list[np.ndarray]:
    """The narrow fold (its einsum branch: digits below 2^28),
    pointwise multiply and multiply-accumulate on ``(6, 8192)`` rows,
    each checked against a reference built from ``np.remainder``."""
    n, k = 8192, 6
    moduli = tuple(islice(ntt_friendly_primes_below(1 << 28, n), k))
    q_col = _u64(moduli).reshape(-1, 1)
    a, b, acc = (rng.integers(0, q_col, size=(k, n), dtype=np.uint64)
                 for _ in range(3))
    stack = rng.integers(0, 1 << 28, size=(k + 1, n), dtype=np.uint64)
    weights = rng.integers(0, q_col, size=(k, k + 1), dtype=np.uint64)
    fold_ref = np.zeros((k, n), dtype=np.uint64)
    for i, digit in enumerate(stack):
        reduced = np.remainder(digit, q_col)
        term = np.remainder(reduced * weights[:, i : i + 1], q_col)
        fold_ref = np.remainder(fold_ref + term, q_col)
    product = np.remainder(a * b, q_col)
    out = [
        backends.bconv_fold(stack, weights, moduli, 1 << 28, "narrow"),
        backends.pointwise_mul(a, b, q_col, "narrow"),
        backends.pointwise_mul_acc(acc, a, b, q_col, "narrow"),
    ]
    for got, want in zip(out, (fold_ref, product,
                               np.remainder(acc + product, q_col))):
        assert np.array_equal(got, want)
    return out


def test_kernels_are_bit_exact_under_any_ufunc_buffer():
    """The buffer only changes how numpy chunks an iteration: numpy's
    default, the repo's setting and a new thread (which starts at
    numpy's default — the setting is a context variable) agree."""
    assert np.getbufsize() == modmath.UFUNC_BUFSIZE
    ours = _kernel_outputs()
    with np.errstate():
        np.setbufsize(NUMPY_BUFSIZE)
        default = _kernel_outputs()
    assert np.getbufsize() == modmath.UFUNC_BUFSIZE
    threaded = []
    worker = threading.Thread(
        target=lambda: threaded.append((np.getbufsize(), _kernel_outputs()))
    )
    worker.start()
    worker.join()
    (thread_bufsize, on_thread), = threaded
    assert thread_bufsize == NUMPY_BUFSIZE
    for got in (default, on_thread):
        assert len(got) == len(ours)
        for x, y in zip(got, ours):
            assert x.dtype == y.dtype and np.array_equal(x, y)


# ----------------------------------------------------------------------
# The four-step NTT's exact float64 helpers, at the edges of their
# stated bounds: the largest uint32-word prime and a 12-bit one (the
# bootstrap chain has them), with inputs built so the float quotient
# estimate lands on a half-integer, where ``rint`` may round either way
# (or, for the 12-bit prime, as near one as float64 gets there).
# ----------------------------------------------------------------------
EXACT_FLOAT_PRIMES = [
    pytest.param(next(ntt_friendly_primes_below(1 << 30, 1024)), id="below30"),
    pytest.param(3329, id="12bit"),
]


def _ties(estimate: np.ndarray, q: int) -> int:
    """How many estimates sit exactly on a half-integer; for a prime
    too small for that at these magnitudes (its ``1/(2q)`` offset is
    more than half a float step), how many are one float step from one."""
    off = np.abs(estimate - np.floor(estimate) - 0.5)
    return int((off <= (0 if q > 1 << 20 else np.spacing(estimate))).sum())


@pytest.mark.parametrize("q", EXACT_FLOAT_PRIMES)
def test_centred_rem_at_quotient_ties(q):
    """``y = t·q + (q ± 1)/2``, whose quotient sits ``1/(2q)`` from a
    half-integer, for ``t`` up to the ``|y| ≤ 2^52`` bound and down to
    minus it: congruent, and ``|r| ≤ q/2 + 2`` however ``rint`` lands."""
    top = ((1 << 52) - q) // q
    ts = [t for lo in (0, top // 2, top - 3000) for t in range(lo, lo + 3000)]
    ys = [s * (t * q + (q + e) // 2) for t in ts for e in (-1, 1) for s in (-1, 1)]
    y = np.array(ys, dtype=np.float64)
    assert [int(v) for v in y] == ys  # exact inputs
    q_inv = 1 / np.float64(q)
    assert _ties(y * q_inv, q) > 0  # the case under test occurs
    r = modmath.centred_rem(y, np.float64(q), q_inv)
    assert np.array_equal(y, np.array(ys, dtype=np.float64))  # pure
    for got, want in zip(r.tolist(), ys):
        assert got == int(got) and (want - int(got)) % q == 0
        assert abs(got) <= q / 2 + 2


@pytest.mark.parametrize("q", EXACT_FLOAT_PRIMES)
def test_mod_mul_centred_at_quotient_ties(q):
    """``c·w ≡ (q ± 1)/2``, so ``c·w/q`` is ``1/(2q)`` from a
    half-integer, for ``c`` across ``(-1.5q, 1.5q)``: exact, and
    ``|r| < 0.51q`` into a float64 output."""
    rng = np.random.default_rng(q)
    ws = [int(v) for v in rng.integers(1, q, 2000)]
    cs = []
    for i, w in enumerate(ws):
        c = (q + (-1) ** i) // 2 * modmath.mod_inv(w, q) % q
        cs.append(c - q * (i % 3) if c - q * (i % 3) > -1.5 * q else c)
    c, w = np.array(cs, dtype=np.float64), np.array(ws, dtype=np.int64)
    w_over_q = w / np.float64(q)
    # A 12-bit product's quotient is 1/(2q) from the half-integer, far
    # more than float64's error at its size: the nearest a tie gets.
    assert _ties(c * w_over_q, q) > 0 or q < 1 << 20
    out = np.empty(len(ws))
    assert modmath.mod_mul_centred(c, w, w_over_q, np.int64(q), out) is out
    for got, ci, wi in zip(out.tolist(), cs, ws):
        assert (ci * wi - int(got)) % q == 0 and abs(got) < 0.51 * q


@pytest.mark.parametrize("q", EXACT_FLOAT_PRIMES)
def test_limb_residue_at_its_bounds(q):
    rng = np.random.default_rng(7)
    los = [1 << 51, -(1 << 51), 0, 1, *rng.integers(-(1 << 51), 1 << 51, 500).tolist()]
    his = [1 << 52, -(1 << 52), 0, -1, *rng.integers(-(1 << 52), 1 << 52, 500).tolist()]
    lo, hi = np.array(los, dtype=np.float64), np.array(his, dtype=np.float64)
    r = modmath.limb_residue(lo, hi, np.float64(q), 1 / np.float64(q))
    for got, a, b in zip(r.tolist(), los, his):
        assert (a + (b << modmath.LIMB_BITS) - int(got)) % q == 0
        assert abs(got) <= q / 2 + 2


@pytest.mark.parametrize("q", EXACT_FLOAT_PRIMES)
def test_centred_fold_covers_an_off_by_one_estimate(q):
    """Any ``|r| < 1.5q`` (a quotient estimate off by one leaves at most
    that) lands in ``[0, q)``, not only ``|r| ≤ q/2 + 2``."""
    edge = (3 * q - 1) // 2
    values = [-edge, -q - 1, -q, -q + 1, -(q // 2) - 2, -1, 0, 1, q // 2 + 2,
              q - 1, q, q + 1, edge]
    r = np.array(values, dtype=np.float64)
    out = np.empty(len(values), dtype=np.uint64)
    got = modmath.centred_fold(r, np.uint32(q), np.uint32(2 * q), out)
    assert got is out and out.tolist() == [v % q for v in values]


def test_split_limbs_recombine():
    w = np.random.default_rng(3).integers(0, 1 << 30, (3, 5, 7), dtype=np.uint64)
    limbs = modmath.split_limbs(w)
    assert limbs.shape == (2, 3, 5, 7) and limbs.flags.c_contiguous
    lo, hi = limbs
    assert lo.max() < 1 << 14 and hi.max() < 1 << 16
    assert np.array_equal(lo.astype(np.uint64) + (hi.astype(np.uint64) << 14), w)
