"""Unit tests for RNS bases and polynomials against big-int oracles."""

from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, ScaleMismatchError
from repro.nt.primes import ntt_friendly_primes_below
from repro.rns.basis import RnsBasis, ScalarColumn, crt_weights
from repro.rns.poly import COEFF, NTT, RnsPolynomial

N = 32
MODULI = tuple(islice(ntt_friendly_primes_below(1 << 26, N), 3)) + tuple(
    islice(ntt_friendly_primes_below(1 << 61, N), 1)
)


@pytest.fixture()
def basis():
    return RnsBasis(N, MODULI)


#: Prime widths per kind (``top``: just below 2^61, the widest modulus
#: admitted), and the basis mixes the storage rule covers: a basis runs
#: every row on its widest member's arithmetic.
WIDTH_BITS = {"narrow": 28, "wide": 55, "top": 61}
WIDTH_MIXES = [
    ("narrow", "narrow"),
    ("wide", "wide"),
    ("narrow", "wide"),
    ("narrow", "top"),
    ("wide", "top"),
]
width_mixes = st.sampled_from(WIDTH_MIXES)


def mix_moduli(mix, n, skip=0):
    """One NTT-friendly prime per entry of ``mix``, all distinct.

    ``skip`` starts further down each width's prime list, so a second
    basis drawn for the same test shares no modulus with the first.
    """
    taken = Counter()
    moduli = []
    for width in mix:
        primes = ntt_friendly_primes_below(1 << WIDTH_BITS[width], n)
        moduli.append(next(islice(primes, skip + taken[width], None)))
        taken[width] += 1
    return tuple(moduli)


def _rand_coeffs(rng, magnitude=10**6):
    return [int(v) for v in rng.integers(-magnitude, magnitude, N)]


class TestBasis:
    def test_product(self, basis):
        from math import prod

        assert basis.product == prod(MODULI)

    def test_duplicate_moduli_rejected(self):
        with pytest.raises(ParameterError):
            RnsBasis(N, (17, 17))

    @pytest.mark.parametrize("bad", [0, 1, -5, 1 << 61, (1 << 61) + 1])
    def test_every_modulus_validated(self, bad):
        """Each modulus, not just the widest, must lie in [2, 2^61)."""
        with pytest.raises(ParameterError, match=f"modulus {bad} "):
            RnsBasis(16, [bad, 97])
        with pytest.raises(ParameterError, match=f"modulus {bad} "):
            RnsBasis(16, [97, bad])

    def test_top_of_the_wide_range_accepted(self):
        assert RnsBasis(16, [97, (1 << 61) - 1]).kind == "wide"

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            RnsBasis(N, ())

    def test_extended(self, basis):
        extra = next(ntt_friendly_primes_below(1 << 20, N))
        bigger = basis.extended([extra])
        assert bigger.size == basis.size + 1
        assert bigger.moduli == basis.moduli + (extra,)

    def test_hash_and_equality(self, basis):
        again = RnsBasis(N, MODULI)
        assert basis == again
        assert hash(basis) == hash(again)
        assert basis != RnsBasis(N, MODULI[:2])

    def test_crt_weights_identity(self, basis):
        q_hat_inv, q_hat = crt_weights(basis)
        for inv, hat, q in zip(q_hat_inv, q_hat, basis.moduli):
            assert hat * inv % q == 1
            assert hat == basis.product // q


class TestPolynomialRoundTrips:
    def test_int_coeff_round_trip(self, basis, rng):
        coeffs = _rand_coeffs(rng)
        poly = RnsPolynomial.from_int_coeffs(basis, coeffs)
        assert poly.to_int_coeffs() == coeffs

    def test_ntt_round_trip(self, basis, rng):
        coeffs = _rand_coeffs(rng)
        poly = RnsPolynomial.from_int_coeffs(basis, coeffs)
        assert poly.to_ntt().to_coeff().to_int_coeffs() == coeffs

    def test_to_ntt_idempotent(self, basis, rng):
        poly = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        once = poly.to_ntt()
        assert once.to_ntt() is once

    def test_zeros(self, basis):
        z = RnsPolynomial(basis, np.zeros((basis.size, N), dtype=np.uint64), COEFF)
        assert z.to_int_coeffs() == [0] * N

    def test_wrong_length_rejected(self, basis):
        with pytest.raises(ParameterError):
            RnsPolynomial.from_int_coeffs(basis, [1, 2, 3])


class TestFromIntCoeffs:
    """The one-broadcast int64 reduction against the Python-int path
    it replaces for coefficients (and bases) that fit."""

    NARROW_WIDE = tuple(islice(ntt_friendly_primes_below(1 << 28, N), 2)) + tuple(
        islice(ntt_friendly_primes_below(1 << 61, N), 2)
    )
    EDGES = [0, -1, 1, -(2**62), 2**62, 2**62 - 1, -(2**63), 2**63 - 1]

    @staticmethod
    def _oracle(moduli, coeffs):
        return [[int(c) % q for c in coeffs] for q in moduli]

    def _coeffs(self, rng, special):
        fill = [int(v) for v in rng.integers(-(2**62), 2**62, N - len(special))]
        return special + fill

    def test_int64_edges_negative_and_zero(self, rng):
        coeffs = self._coeffs(rng, self.EDGES)
        poly = RnsPolynomial.from_int_coeffs(RnsBasis(N, self.NARROW_WIDE), coeffs)
        assert poly.mat.dtype == np.uint64
        assert poly.mat.tolist() == self._oracle(self.NARROW_WIDE, coeffs)

    @pytest.mark.parametrize("oversized", [2**63, -(2**63) - 1, 3**80])
    def test_oversized_coefficient_takes_the_python_int_path(self, rng, oversized):
        coeffs = self._coeffs(rng, [oversized, -oversized])
        poly = RnsPolynomial.from_int_coeffs(RnsBasis(N, self.NARROW_WIDE), coeffs)
        assert poly.mat.tolist() == self._oracle(self.NARROW_WIDE, coeffs)

    def test_array_inputs(self, rng):
        moduli = self.NARROW_WIDE
        signed = rng.integers(-(2**62), 2**62, N)
        unsigned = rng.integers(2**63, 2**64, N, dtype=np.uint64)  # wraps as int64
        boxed = np.array(self._coeffs(rng, [3**50]), dtype=object)
        for coeffs in (signed, unsigned, boxed):
            poly = RnsPolynomial.from_int_coeffs(RnsBasis(N, moduli), coeffs)
            assert poly.mat.tolist() == self._oracle(moduli, coeffs)

    @pytest.mark.parametrize("special", [[], [3**80]], ids=["int64", "python-int"])
    def test_a_nested_batch_is_its_members(self, rng, special):
        moduli = self.NARROW_WIDE
        batch = [[self._coeffs(rng, special) for _ in range(3)] for _ in range(2)]
        poly = RnsPolynomial.from_int_coeffs(RnsBasis(N, moduli), batch)
        assert poly.batch == (2, 3) and poly.mat.dtype == np.uint64
        for mats, members in zip(poly.mat, batch):
            for mat, coeffs in zip(mats, members):
                assert mat.tolist() == self._oracle(moduli, coeffs)


class TestConstructorValidation:
    """One matrix, checked once: misfits raise ParameterError, by name."""

    def _rows(self, basis):
        return [np.zeros(basis.n, dtype=np.uint64) for _ in basis.moduli]

    def test_ragged_rows_rejected(self):
        """ISSUE 13's example — ragged *and* mistyped: formerly a bare
        ValueError out of ``np.stack``, at first use, not construction."""
        basis = RnsBasis(N, MODULI[:2])
        rows = [np.zeros(N + 3, dtype=np.uint64), np.zeros(N, dtype=np.int32)]
        with pytest.raises(ParameterError, match="row 0 has shape"):
            RnsPolynomial(basis, rows, COEFF)

    def test_wrong_dtype_rejected(self):
        basis = RnsBasis(N, MODULI[:2])
        rows = self._rows(basis)
        rows[1] = np.zeros(N, dtype=np.int32)
        with pytest.raises(ParameterError, match="row 1 is int32"):
            RnsPolynomial(basis, rows, COEFF)
        with pytest.raises(ParameterError, match="uint64 residues, got int64"):
            RnsPolynomial(basis, np.zeros((2, N), dtype=np.int64), COEFF)

    def test_wrong_row_count_rejected(self):
        basis = RnsBasis(N, MODULI[:2])
        with pytest.raises(ParameterError, match="expected 2 residue rows, got 3"):
            RnsPolynomial(basis, self._rows(RnsBasis(N, MODULI[:3])), COEFF)
        with pytest.raises(ParameterError, match=r"expected a \(2, 32\)"):
            RnsPolynomial(basis, np.zeros((3, N), dtype=np.uint64), COEFF)

    def test_every_kind_stores_uint64(self, basis):
        """Narrow rows beside a wide one, and narrow rows alone: both
        kinds store uint64 matrices, and nothing else."""
        narrow = RnsBasis(N, MODULI[:3])
        assert (basis.kind, narrow.kind) == ("wide", "narrow")
        for b in (basis, narrow):
            assert RnsPolynomial(b, self._rows(b), COEFF).mat.dtype == np.uint64
            with pytest.raises(ParameterError, match="uint64 residues, got object"):
                RnsPolynomial(b, np.zeros((b.size, N), dtype=object), COEFF)

    def test_rows_are_views_of_the_matrix(self):
        basis = RnsBasis(N, MODULI[:2])
        poly = RnsPolynomial(basis, np.zeros((2, N), dtype=np.uint64), COEFF)
        poly.rows[1][5] = np.uint64(7)
        assert int(poly.mat[1, 5]) == 7
        with pytest.raises(AttributeError):
            poly.rows = []


class TestArithmetic:
    def test_add_sub_neg(self, basis, rng):
        a_coeffs, b_coeffs = _rand_coeffs(rng), _rand_coeffs(rng)
        a = RnsPolynomial.from_int_coeffs(basis, a_coeffs)
        b = RnsPolynomial.from_int_coeffs(basis, b_coeffs)
        assert a.add(b).to_int_coeffs() == [
            x + y for x, y in zip(a_coeffs, b_coeffs)
        ]
        assert a.sub(b).to_int_coeffs() == [
            x - y for x, y in zip(a_coeffs, b_coeffs)
        ]
        assert a.neg().to_int_coeffs() == [-x for x in a_coeffs]

    def test_scalar_mul(self, basis, rng):
        coeffs = _rand_coeffs(rng, magnitude=1000)
        a = RnsPolynomial.from_int_coeffs(basis, coeffs)
        assert a.scalar_mul(37).to_int_coeffs() == [37 * c for c in coeffs]

    @pytest.mark.parametrize("mix", WIDTH_MIXES, ids="+".join)
    def test_rowwise_scalar_mul_takes_a_ready_column(self, mix, rng):
        """A ``ScalarColumn`` built once multiplies like the integers it
        was built from, on every kind (the wide one carries a Shoup
        companion, the others none)."""
        basis = RnsBasis(N, mix_moduli(mix, N))
        poly = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        scalars = [int(v) for v in rng.integers(-(2**40), 2**40, basis.size)]
        column = basis.scalar_column(scalars)
        assert isinstance(column, ScalarColumn)
        assert (column.shoup is not None) == (basis.kind == "wide")
        got = poly.rowwise_scalar_mul(column)
        want = poly.rowwise_scalar_mul(scalars)
        assert got.mat.tolist() == want.mat.tolist()
        for row, k, q, src in zip(got.mat, scalars, basis.moduli, poly.mat):
            assert row.tolist() == [int(v) * k % q for v in src]
        with pytest.raises(ParameterError):
            basis.scalar_column(scalars[:-1])

    @pytest.mark.parametrize("mix", WIDTH_MIXES, ids="+".join)
    @pytest.mark.parametrize("k", [0, 5, -7, 3**60])
    def test_add_constant_is_adding_the_constant_polynomial(self, mix, k, rng):
        basis = RnsBasis(N, mix_moduli(mix, N))
        poly = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        constant = RnsPolynomial.from_int_coeffs(basis, [k] + [0] * (N - 1))
        want = poly.add(constant)
        assert poly.add_constant(k).mat.tolist() == want.mat.tolist()
        in_ntt = poly.to_ntt().add_constant(k)
        assert in_ntt.domain == NTT
        assert in_ntt.to_coeff().mat.tolist() == want.mat.tolist()

    def test_poly_mul_matches_bigint_negacyclic(self, basis, rng):
        a_coeffs = _rand_coeffs(rng, magnitude=1000)
        b_coeffs = _rand_coeffs(rng, magnitude=1000)
        a = RnsPolynomial.from_int_coeffs(basis, a_coeffs)
        b = RnsPolynomial.from_int_coeffs(basis, b_coeffs)
        got = a.poly_mul(b).to_int_coeffs()
        ref = [0] * N
        for i in range(N):
            for j in range(N):
                k = i + j
                if k < N:
                    ref[k] += a_coeffs[i] * b_coeffs[j]
                else:
                    ref[k - N] -= a_coeffs[i] * b_coeffs[j]
        assert got == ref

    def test_domain_mismatch_rejected(self, basis, rng):
        a = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        with pytest.raises(ScaleMismatchError):
            a.add(a.to_ntt())

    def test_basis_mismatch_rejected(self, basis, rng):
        a = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        other = a.restricted(basis.moduli[:2])
        with pytest.raises(ScaleMismatchError):
            a.add(other)

    def test_pointwise_requires_ntt(self, basis, rng):
        a = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        with pytest.raises(ParameterError):
            a.pointwise_mul(a)


class TestGalois:
    def test_galois_matches_reference(self, basis, rng):
        coeffs = _rand_coeffs(rng)
        poly = RnsPolynomial.from_int_coeffs(basis, coeffs)
        g = 5
        got = poly.galois(g).to_int_coeffs()
        ref = [0] * N
        for j, c in enumerate(coeffs):
            t = j * g % (2 * N)
            if t < N:
                ref[t] += c
            else:
                ref[t - N] -= c
        assert got == ref

    def test_galois_identity(self, basis, rng):
        poly = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        assert poly.galois(1).to_int_coeffs() == poly.to_int_coeffs()

    def test_galois_composition(self, basis, rng):
        poly = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        lhs = poly.galois(5).galois(5)
        rhs = poly.galois(25)
        assert lhs.to_int_coeffs() == rhs.to_int_coeffs()

    def test_even_galois_rejected(self, basis, rng):
        poly = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        with pytest.raises(ParameterError):
            poly.galois(4)

    def test_ntt_galois_equals_coefficient_galois_for_every_odd_g(self, rng):
        """In NTT form the automorphism is a slot permutation: it must
        equal transform-back, permute-with-signs, transform-again."""
        n = 16
        for mix in WIDTH_MIXES:
            basis = RnsBasis(n, mix_moduli(mix, n))
            coeffs = [int(v) for v in rng.integers(-(10**6), 10**6, n)]
            ntt = RnsPolynomial.from_int_coeffs(basis, coeffs).to_ntt()
            for g in range(1, 2 * n, 2):
                got = ntt.galois(g)
                want = ntt.to_coeff().galois(g).to_ntt()
                assert got.domain == NTT
                assert np.array_equal(got.mat, want.mat), (mix, g)

    @settings(max_examples=40, deadline=None)
    @given(
        log_n=st.integers(1, 8), mix=width_mixes,
        g=st.integers(0, 2**12), seed=st.integers(0, 2**32 - 1),
    )
    def test_ntt_galois_sweep(self, log_n, mix, g, seed):
        n = 1 << log_n
        g = 2 * g + 1  # any odd element, reduced mod 2n inside
        basis = RnsBasis(n, mix_moduli(mix, n))
        coeffs = [
            int(v) for v in np.random.default_rng(seed).integers(-(10**9), 10**9, n)
        ]
        ntt = RnsPolynomial.from_int_coeffs(basis, coeffs).to_ntt()
        want = ntt.to_coeff().galois(g).to_ntt()
        assert np.array_equal(ntt.galois(g).mat, want.mat)


class TestRestriction:
    def test_restricted_reorders_rows(self, basis, rng):
        poly = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        rev = tuple(reversed(basis.moduli))
        restricted = poly.restricted(rev)
        assert restricted.basis.moduli == rev
        for q in rev:
            assert [int(v) for v in restricted.row(q)] == [
                int(v) for v in poly.row(q)
            ]

    def test_restricted_drops_value_mod_smaller_q(self, basis, rng):
        coeffs = _rand_coeffs(rng, magnitude=100)
        poly = RnsPolynomial.from_int_coeffs(basis, coeffs)
        sub = poly.restricted(basis.moduli[:2])
        assert sub.to_int_coeffs() == coeffs  # small values survive

    def test_restriction_is_cached_and_unchanged(self, basis, rng, monkeypatch):
        """The sub-basis and row indices come from one cache per
        ``(basis, moduli)``: the rows are what indexing by hand gives,
        and a repeat builds no basis."""
        poly = RnsPolynomial.from_int_coeffs(basis, _rand_coeffs(rng))
        keep = (basis.moduli[2], basis.moduli[0])  # sheds the wide row
        first = poly.restricted(keep)
        want = np.stack([poly.row(q) for q in keep]).astype(np.uint64)
        assert first.basis == RnsBasis(N, keep)
        assert first.mat.dtype == np.uint64
        assert np.array_equal(first.mat, want)

        built = []
        init = RnsBasis.__init__
        monkeypatch.setattr(
            RnsBasis, "__init__",
            lambda self, *args: (built.append(args), init(self, *args))[1],
        )
        again = poly.restricted(list(keep))
        assert built == []
        assert again.basis is first.basis
        assert np.array_equal(again.mat, want)
        assert again.mat is not first.mat  # still a fresh matrix per call


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_add_mul_distributivity_property(data):
    """Property: a*(b + c) == a*b + a*c in the RNS ring, at every width."""
    rng_vals = st.integers(min_value=-500, max_value=500)
    n = 8
    basis = RnsBasis(n, mix_moduli(data.draw(width_mixes), n))
    a = RnsPolynomial.from_int_coeffs(
        basis, data.draw(st.lists(rng_vals, min_size=n, max_size=n))
    )
    b = RnsPolynomial.from_int_coeffs(
        basis, data.draw(st.lists(rng_vals, min_size=n, max_size=n))
    )
    c = RnsPolynomial.from_int_coeffs(
        basis, data.draw(st.lists(rng_vals, min_size=n, max_size=n))
    )
    lhs = a.poly_mul(b.add(c))
    rhs = a.poly_mul(b).add(a.poly_mul(c))
    assert lhs.to_int_coeffs() == rhs.to_int_coeffs()


def _galois_oracle(row, g, q):
    n = len(row)
    out = [0] * n
    for j, c in enumerate(row):
        t = j * g % (2 * n)
        out[t % n] = c if t < n else -c % q
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_width_mix_ops_match_oracle_and_single_modulus_rows(data):
    """Each matrix op, on a basis mixing widths, equals the Python-int
    oracle row by row *and* the same op on that row's own one-modulus
    basis, bit for bit — whichever kernel the widest member selects."""
    n = 8
    moduli = mix_moduli(data.draw(width_mixes), n)
    basis = RnsBasis(n, moduli)

    def draw_rows():
        return [
            data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
            for q in moduli
        ]

    a, b = draw_rows(), draw_rows()
    scalars = [data.draw(st.integers(0, 1 << 70)) for _ in moduli]
    g = data.draw(st.sampled_from([3, 5, 2 * n - 1]))

    def poly(rows, domain):
        return RnsPolynomial(basis, np.array(rows, dtype=np.uint64), domain)

    # name -> (domain, op over polynomials + per-row scalars,
    #          oracle over one row's Python ints and its scalar)
    cases = {
        "add": (
            COEFF, lambda x, y, s: x.add(y),
            lambda x, y, s, q: [(u + v) % q for u, v in zip(x, y)],
        ),
        "sub": (
            COEFF, lambda x, y, s: x.sub(y),
            lambda x, y, s, q: [(u - v) % q for u, v in zip(x, y)],
        ),
        "neg": (
            COEFF, lambda x, y, s: x.neg(),
            lambda x, y, s, q: [-u % q for u in x],
        ),
        "pointwise_mul": (
            NTT, lambda x, y, s: x.pointwise_mul(y),
            lambda x, y, s, q: [u * v % q for u, v in zip(x, y)],
        ),
        "rowwise_scalar_mul": (
            COEFF, lambda x, y, s: x.rowwise_scalar_mul(s),
            lambda x, y, s, q: [u * s % q for u in x],
        ),
        "galois": (
            COEFF, lambda x, y, s: x.galois(g),
            lambda x, y, s, q: _galois_oracle(x, g, q),
        ),
        "ntt_round_trip": (
            COEFF, lambda x, y, s: x.to_ntt().to_coeff(),
            lambda x, y, s, q: list(x),
        ),
    }
    for name, (domain, op, oracle) in cases.items():
        polys = [poly(rows, domain) for rows in (a, b)]
        got = op(*polys, scalars)
        assert got.mat.dtype == np.uint64, name
        for i, q in enumerate(moduli):
            want = oracle(a[i], b[i], scalars[i], q)
            assert got.mat[i].tolist() == want, (name, q)
            alone = op(*(p.restricted((q,)) for p in polys), [scalars[i]])
            assert alone.mat[0].tolist() == want, (name, q, "one-modulus basis")
    # The forward transform has no cheap int oracle; it must still agree
    # with the one-modulus transform of each row.
    fwd = poly(a, COEFF).to_ntt()
    for i, q in enumerate(moduli):
        alone = poly(a, COEFF).restricted((q,)).to_ntt()
        assert fwd.mat[i].tolist() == alone.mat[0].tolist()
