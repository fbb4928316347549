"""Unit tests for base conversion and scale-up/scale-down (Listings 3, 5)."""

from itertools import islice
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.ciphertext import Ciphertext
from repro.errors import ParameterError
from repro.nt.crt import centered
from repro.nt.primes import ntt_friendly_primes_below
from repro.rns.basis import RnsBasis, conversion_table, crt_weights
from repro.rns.convert import (
    base_convert,
    drop_moduli,
    scale_down,
    scale_down_all,
    scale_up,
)
from repro.rns.poly import COEFF, NTT, RnsPolynomial
from repro.schemes import plan_bitpacker_chain
from tests.test_nt_primes import KAT_CHAINS
from tests.test_rns_poly import mix_moduli, width_mixes

N = 32
SRC_MODULI = tuple(islice(ntt_friendly_primes_below(1 << 26, N), 3))
DST_MODULI = tuple(islice(ntt_friendly_primes_below(1 << 24, N), 2))
WIDE_MODULI = tuple(islice(ntt_friendly_primes_below(1 << 58, N), 2))


def _poly(coeffs, moduli=SRC_MODULI):
    return RnsPolynomial.from_int_coeffs(RnsBasis(N, moduli), coeffs)


class TestBaseConvert:
    def test_centered_exact_for_small_values(self, rng):
        coeffs = [int(v) for v in rng.integers(-(10**6), 10**6, N)]
        conv = base_convert(_poly(coeffs), DST_MODULI)
        for p, row in zip(DST_MODULI, conv.rows):
            assert [int(v) for v in row] == [c % p for c in coeffs]

    def test_near_half_modulus_values(self):
        """Values close to (but, per the documented float-boundary
        exclusion, not exactly at) the +-Q/2 extremes."""
        big_q = prod(SRC_MODULI)
        margin = big_q // 100
        coeffs = [
            big_q // 2 - margin,
            -(big_q // 2) + margin,
            big_q // 3,
            -(big_q // 3),
        ] + [0] * (N - 4)
        conv = base_convert(_poly(coeffs), DST_MODULI)
        for p, row in zip(DST_MODULI, conv.rows):
            assert [int(v) for v in row] == [c % p for c in coeffs]

    def test_wide_moduli_path(self, rng):
        coeffs = [int(v) for v in rng.integers(-(10**9), 10**9, N)]
        poly = _poly(coeffs, WIDE_MODULI)
        conv = base_convert(poly, SRC_MODULI)
        for p, row in zip(SRC_MODULI, conv.rows):
            assert [int(v) for v in row] == [c % p for c in coeffs]

    def test_approximate_mode_off_by_multiple_of_q(self, rng):
        coeffs = [int(v) for v in rng.integers(-(10**6), 10**6, N)]
        poly = _poly(coeffs)
        big_q = prod(SRC_MODULI)
        conv = base_convert(poly, DST_MODULI, exact=False)
        for p, row in zip(DST_MODULI, conv.rows):
            for got, c in zip(row, coeffs):
                # Approximate conversion is off by alpha * Q, 0 <= alpha < R.
                diff = (int(got) - c) % p
                assert any(
                    diff == (alpha * big_q) % p for alpha in range(len(SRC_MODULI) + 1)
                )

    def test_requires_coeff_domain(self, rng):
        coeffs = [int(v) for v in rng.integers(0, 100, N)]
        with pytest.raises(ParameterError):
            base_convert(_poly(coeffs).to_ntt(), DST_MODULI)


class TestConversionTable:
    def test_one_table_per_basis_pair(self, rng):
        poly = _poly([int(v) for v in rng.integers(-99, 99, N)])
        conversion_table.cache_clear()
        for _ in range(3):
            base_convert(poly, DST_MODULI)
            base_convert(poly, list(DST_MODULI))  # any sequence, one key
        info = conversion_table.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        assert info.maxsize is not None  # bounded
        table = conversion_table(poly.basis, DST_MODULI)
        assert table is conversion_table(RnsBasis(N, SRC_MODULI), DST_MODULI)
        assert table.dst.moduli == DST_MODULI

    def test_constants_match_the_crt_definitions(self):
        src = RnsBasis(N, SRC_MODULI)
        table = conversion_table(src, DST_MODULI + WIDE_MODULI)
        q_hat_inv, q_hat = crt_weights(src)
        assert table.digit.col.ravel().tolist() == list(q_hat_inv)
        assert table.q_inv.tolist() == [1.0 / q for q in SRC_MODULI]
        assert table.weights.shape == (4, len(SRC_MODULI) + 1)
        for row, p in zip(table.weights.tolist(), table.dst.moduli):
            assert row == [h % p for h in q_hat] + [-src.product % p]
        assert table.inv_product.col.ravel().tolist() == [
            pow(src.product, -1, p) for p in table.dst.moduli
        ]

    def test_scale_down_needs_destinations_coprime_to_the_source(self):
        table = conversion_table(RnsBasis(N, SRC_MODULI), SRC_MODULI[:1] + DST_MODULI)
        assert table.weights.shape == (3, 4)  # conversion itself is fine
        with pytest.raises(ParameterError, match="not invertible"):
            table.inv_product

    def test_scale_down_runs_no_extended_gcd_once_warm(self, rng, monkeypatch):
        from repro.nt import modmath

        coeffs = [int(v) for v in rng.integers(-(10**12), 10**12, N)]
        poly = _poly(coeffs, SRC_MODULI + DST_MODULI)
        want = scale_down(poly, DST_MODULI).mat.tolist()
        monkeypatch.setattr(
            modmath, "_xgcd", lambda *a: pytest.fail("mod_inv on a warm table")
        )
        assert scale_down(poly, DST_MODULI).mat.tolist() == want

    def test_level_moves_build_no_basis_once_warm(self, rng, monkeypatch):
        """scale_down, scale_up and drop_moduli read their sub-bases,
        grown bases, row indices and kept moduli from caches keyed on
        the basis pair — so a warm BitPacker rescale (Listing 4) or
        multi-level adjust (Listing 6) constructs no basis at all."""
        coeffs = [int(v) for v in rng.integers(-(10**12), 10**12, N)]
        poly = _poly(coeffs, SRC_MODULI + DST_MODULI)
        chain = plan_bitpacker_chain(
            n=N, word_bits=28, level_scale_bits=31.0, levels=5,
            base_bits=60.0, ks_digits=2,
        )
        top = chain.max_level
        assert chain.move(top, top - 1).added  # the rescale scales up
        assert all(chain.move(top, 0)[:3])  # the adjust drops, adds and sheds
        c = _poly(coeffs, chain.moduli_at(top))
        ct = Ciphertext(c, c, top, chain.scale_at(top))
        want = [
            scale_down(poly, DST_MODULI).mat.tolist(),
            drop_moduli(poly, DST_MODULI).mat.tolist(),
            scale_up(poly, WIDE_MODULI).mat.tolist(),
            chain.rescale(ct).c0.mat.tolist(),
            chain.adjust(ct, 0).c0.mat.tolist(),
        ]
        monkeypatch.setattr(
            RnsBasis, "__init__", lambda *a: pytest.fail("RnsBasis built when warm")
        )
        assert scale_down(poly, list(DST_MODULI)).mat.tolist() == want[0]
        assert drop_moduli(poly, list(DST_MODULI)).mat.tolist() == want[1]
        assert scale_up(poly, list(WIDE_MODULI)).mat.tolist() == want[2]
        assert chain.rescale(ct).c0.mat.tolist() == want[3]
        assert chain.adjust(ct, 0).c0.mat.tolist() == want[4]


class TestScaleUp:
    def test_multiplies_by_product(self, rng):
        coeffs = [int(v) for v in rng.integers(-1000, 1000, N)]
        up = scale_up(_poly(coeffs), DST_MODULI)
        k = prod(DST_MODULI)
        assert up.to_int_coeffs() == [c * k for c in coeffs]

    def test_new_rows_are_zero(self, rng):
        coeffs = [int(v) for v in rng.integers(-1000, 1000, N)]
        up = scale_up(_poly(coeffs), DST_MODULI)
        for q in DST_MODULI:
            assert all(int(v) == 0 for v in up.row(q))

    def test_works_in_ntt_domain(self, rng):
        coeffs = [int(v) for v in rng.integers(-1000, 1000, N)]
        up = scale_up(_poly(coeffs).to_ntt(), DST_MODULI)
        k = prod(DST_MODULI)
        assert up.to_int_coeffs() == [c * k for c in coeffs]

    def test_duplicate_modulus_rejected(self, rng):
        coeffs = [int(v) for v in rng.integers(0, 10, N)]
        with pytest.raises(ParameterError):
            scale_up(_poly(coeffs), [SRC_MODULI[0]])


class TestScaleDown:
    def test_inverts_scale_up(self, rng):
        coeffs = [int(v) for v in rng.integers(-(10**6), 10**6, N)]
        up = scale_up(_poly(coeffs), DST_MODULI)
        down = scale_down(up.to_coeff(), DST_MODULI)
        assert down.to_int_coeffs() == coeffs

    def test_rounds_to_nearest(self, rng):
        coeffs = [int(v) for v in rng.integers(-(10**9), 10**9, N)]
        p = SRC_MODULI[-1]
        down = scale_down(_poly(coeffs), [p])
        for got, c in zip(down.to_int_coeffs(), coeffs):
            # Exact nearest-integer division (ties may go either way).
            assert abs(got * p - c) <= (p + 1) // 2

    def test_multi_modulus_single_pass(self, rng):
        """Listing 5's claim: shedding k moduli at once equals shedding
        them one at a time (up to rounding of intermediate steps)."""
        coeffs = [int(v) for v in rng.integers(-(10**7), 10**7, N)]
        both = scale_down(_poly(coeffs), list(SRC_MODULI[1:]))
        p = prod(SRC_MODULI[1:])
        for got, c in zip(both.to_int_coeffs(), coeffs):
            assert abs(got * p - c) <= (p + 1) // 2 + p // 4

    def test_cannot_shed_everything(self, rng):
        coeffs = [int(v) for v in rng.integers(0, 10, N)]
        with pytest.raises(ParameterError):
            scale_down(_poly(coeffs), list(SRC_MODULI))

    def test_empty_shed_is_identity(self, rng):
        coeffs = [int(v) for v in rng.integers(0, 10, N)]
        poly = _poly(coeffs)
        assert scale_down(poly, []).to_int_coeffs() == coeffs

    def test_takes_ntt_domain(self, rng):
        """An NTT-form input returns the coefficient-form result of its
        inverse transform, bit for bit."""
        coeffs = [int(v) for v in rng.integers(-(10**9), 10**9, N)]
        poly = _poly(coeffs)
        down = scale_down(poly.to_ntt(), [SRC_MODULI[-1]])
        assert down.domain == COEFF
        assert down.mat.tolist() == scale_down(poly, [SRC_MODULI[-1]]).mat.tolist()


class TestScaleDownNttForm:
    """On the ladder's three chains, ``scale_down`` of an NTT-form
    polynomial is bit-equal to ``scale_down`` of its coefficient form,
    with its per-row constants riding the inverse transform: no
    ``rowwise_scalar_mul`` runs."""

    @staticmethod
    def _shapes(chain):
        """A keyswitch's mod-down (``M ∪ P`` by ``P``) and the top
        rescale's, when it only sheds."""
        top = chain.max_level
        yield chain.moduli_at(top) + chain.special_moduli, chain.special_moduli
        move = chain.move(top, top - 1)
        if not move.added:
            yield chain.moduli_at(top), move.shed

    @pytest.mark.parametrize(
        "label", ["logreg_bp28", "logreg_rns60", "bootstrap_bp28"]
    )
    def test_matches_coefficient_form(self, label, monkeypatch):
        chain = KAT_CHAINS[label]()
        rng = np.random.default_rng(len(label))
        for moduli, shed in self._shapes(chain):
            basis = RnsBasis(chain.n, moduli)
            polys = [
                RnsPolynomial(basis, np.stack(
                    [rng.integers(0, q, chain.n, dtype=np.uint64) for q in moduli]
                ), NTT)
                for _ in range(2)
            ]
            want = [scale_down(p.to_coeff(), shed).mat for p in polys]
            calls = []
            real = RnsPolynomial.rowwise_scalar_mul

            def counted(self, scalars, real=real):
                calls.append(scalars)
                return real(self, scalars)

            monkeypatch.setattr(RnsPolynomial, "rowwise_scalar_mul", counted)
            got = [scale_down(p, shed) for p in polys]
            siblings = scale_down_all(polys, shed)
            monkeypatch.undo()
            assert calls == []
            for one, sib, w in zip(got, siblings, want):
                assert one.domain == sib.domain == COEFF
                assert np.array_equal(one.mat, w)
                assert np.array_equal(sib.mat, w)

    def test_siblings_share_one_transform_and_keep_their_order(self, rng):
        """A coefficient-form sibling takes the multiply; the NTT-form
        ones ride one stacked inverse (``nt.ntt.inverse`` counted once)."""
        from repro.nt import ntt as ntt_mod

        coeffs = [[int(v) for v in rng.integers(-(10**9), 10**9, N)]
                  for _ in range(3)]
        polys = [_poly(c) for c in coeffs]
        shed = [SRC_MODULI[-1]]
        want = [scale_down(p, shed).mat for p in polys]
        calls = []
        real = ntt_mod.inverse_rows

        def counted(mat, moduli, scale=None):
            calls.append(mat.shape)
            return real(mat, moduli, scale)

        mixed = [polys[0].to_ntt(), polys[1], polys[2].to_ntt()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ntt_mod, "inverse_rows", counted)
            got = scale_down_all(mixed, shed)
        assert calls == [(2, len(SRC_MODULI), N)]
        assert [g.mat.tolist() for g in got] == [w.tolist() for w in want]
        with pytest.raises(ParameterError, match="one basis"):
            scale_down_all([polys[0], _poly(coeffs[0], DST_MODULI)], shed)


class TestDropModuli:
    def test_preserves_small_values(self, rng):
        coeffs = [int(v) for v in rng.integers(-1000, 1000, N)]
        dropped = drop_moduli(_poly(coeffs), [SRC_MODULI[-1]])
        assert dropped.to_int_coeffs() == coeffs
        assert dropped.basis.moduli == SRC_MODULI[:-1]

    def test_missing_modulus_rejected(self, rng):
        coeffs = [int(v) for v in rng.integers(0, 10, N)]
        with pytest.raises(ParameterError):
            drop_moduli(_poly(coeffs), [999983])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scale_up_down_round_trip_property(data):
    """Property: scale_down(scale_up(x, qs), qs) == x exactly, whatever
    widths the kept and the added moduli mix."""
    n = 8
    src = mix_moduli(data.draw(width_mixes), n)
    extra = mix_moduli(data.draw(width_mixes), n, skip=2)
    coeffs = data.draw(
        st.lists(st.integers(-(10**5), 10**5), min_size=n, max_size=n)
    )
    poly = RnsPolynomial.from_int_coeffs(RnsBasis(n, src), coeffs)
    up = scale_up(poly, extra)
    down = scale_down(up.to_coeff(), extra)
    assert down.to_int_coeffs() == coeffs


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_width_mix_conversions_match_oracle_and_single_modulus_rows(data):
    """base_convert(exact) / scale_up / scale_down across width mixes:
    every output row equals the Python-int oracle *and* the same
    conversion with that row as the only destination (or kept) modulus,
    bit for bit — source and destination kinds chosen independently."""
    n = 8
    src = mix_moduli(data.draw(width_mixes), n)
    dst = mix_moduli(data.draw(width_mixes), n, skip=2)
    big_p = prod(dst)

    def draw_poly(moduli):
        # Away from +-Q/2, where the float alpha estimate is documented
        # to be unreliable.
        bound = prod(moduli) // 4
        coeffs = data.draw(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
        )
        return coeffs, RnsPolynomial.from_int_coeffs(RnsBasis(n, moduli), coeffs)

    coeffs, poly = draw_poly(src)

    conv = base_convert(poly, dst, exact=True)
    assert conv.mat.dtype == np.uint64
    for j, p in enumerate(dst):
        want = [c % p for c in coeffs]
        assert conv.mat[j].tolist() == want
        assert base_convert(poly, (p,)).mat[0].tolist() == want

    up = scale_up(poly, dst)
    assert up.basis.moduli == src + dst and up.mat.dtype == np.uint64
    for i, q in enumerate(src):
        want = [c * big_p % q for c in coeffs]
        assert up.mat[i].tolist() == want
        assert scale_up(poly.restricted((q,)), dst).mat[0].tolist() == want
    assert not up.mat[len(src):].any()

    wide_coeffs, full = draw_poly(src + dst)
    down = scale_down(full, dst)
    assert down.basis.moduli == src and down.mat.dtype == np.uint64
    rounded = [(c - centered(c, big_p)) // big_p for c in wide_coeffs]
    for i, q in enumerate(src):
        want = [y % q for y in rounded]
        assert down.mat[i].tolist() == want
        alone = scale_down(full.restricted((q,) + dst), dst)
        assert alone.mat[0].tolist() == want
