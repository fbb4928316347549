"""Planner invariants for both schemes (paper Secs. 2.3 and 3.3)."""

import math
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LevelExhaustedError, ParameterError
from repro.nt.primes import is_ntt_friendly, terminal_prime_candidates
from repro.schemes import (
    greedy_terminal_primes,
    plan_bitpacker_chain,
    plan_chain,
    plan_rns_ckks_chain,
)
from repro.schemes.rns_ckks import achievable_scale_bits
from repro.schemes.selection import (
    greedy_prime_product,
    limit_fraction,
    log2_fraction,
    min_prime_bits,
    terminal_pool,
)

N = 256


def _plan(scheme, **kw):
    args = dict(
        n=N, word_bits=28, level_scale_bits=30.0, levels=5, base_bits=40.0,
        ks_digits=2,
    )
    args.update(kw)
    return plan_chain(scheme, **args)


@pytest.mark.parametrize("scheme", ["bitpacker", "rns-ckks"])
class TestCommonInvariants:
    def test_moduli_distinct_within_level(self, scheme):
        chain = _plan(scheme)
        for level in range(chain.max_level + 1):
            moduli = chain.moduli_at(level)
            assert len(set(moduli)) == len(moduli)

    def test_moduli_ntt_friendly_and_word_sized(self, scheme):
        chain = _plan(scheme)
        for level in range(chain.max_level + 1):
            for q in chain.moduli_at(level):
                assert is_ntt_friendly(q, N)
                assert q < 1 << 28

    def test_modulus_monotone_in_level(self, scheme):
        chain = _plan(scheme)
        for level in range(1, chain.max_level + 1):
            assert chain.q_product_at(level) > chain.q_product_at(level - 1)

    def test_specials_disjoint_from_levels(self, scheme):
        chain = _plan(scheme)
        used = set(chain.all_moduli)
        assert not used & set(chain.special_moduli)

    def test_specials_cover_largest_digit(self, scheme):
        chain = _plan(scheme)
        import numpy as np

        top = chain.moduli_at(chain.max_level)
        groups = np.array_split(np.arange(len(top)), chain.ks_digits)
        max_digit = max(prod(top[i] for i in g) for g in groups if len(g))
        assert prod(chain.special_moduli) >= max_digit

    def test_scale_near_target(self, scheme):
        chain = _plan(scheme)
        for level in range(chain.max_level + 1):
            drift = abs(chain.levels[level].log2_scale - 30.0)
            # RNS-CKKS may overshoot unreachable targets; BitPacker stays
            # within the (possibly escalated) window.
            assert drift < 16.0

    def test_level_out_of_range(self, scheme):
        chain = _plan(scheme)
        with pytest.raises(LevelExhaustedError):
            chain.moduli_at(chain.max_level + 1)

    def test_describe_mentions_every_level(self, scheme):
        chain = _plan(scheme)
        text = chain.describe()
        for level in range(chain.max_level + 1):
            assert f"L{level:>3}" in text

    def test_security_cap_enforced(self, scheme):
        with pytest.raises(Exception):
            _plan(scheme, max_log_q=100.0)

    def test_scalar_needs_levels(self, scheme):
        with pytest.raises(ParameterError):
            _plan(scheme, levels=None)

    def test_per_level_scale_targets(self, scheme):
        targets = [30.0, 30.0, 35.0, 40.0, 35.0]
        chain = _plan(scheme, level_scale_bits=targets, levels=None)
        assert chain.max_level == 4


class TestBitPackerPacking:
    def test_nonterminals_near_word_size(self):
        chain = _plan("bitpacker")
        top = chain.moduli_at(chain.max_level)
        # At least one residue must be packed close to 2^28.
        assert max(q.bit_length() for q in top) == 28

    def test_fewer_residues_than_rns(self):
        """The headline effect (Fig. 1): packed residues need fewer words."""
        bp = _plan("bitpacker", levels=8, level_scale_bits=22.0)
        rns = _plan("rns-ckks", levels=8, level_scale_bits=22.0)
        assert bp.residues_at(bp.max_level) < rns.residues_at(rns.max_level)

    def test_nonterminal_prefix_property(self):
        """Non-terminals at a lower level are a prefix of the level above,
        so rescale only sheds from the tail."""
        chain = _plan("bitpacker")
        pool = []
        for level in range(chain.max_level, -1, -1):
            nts = [q for q in chain.moduli_at(level) if q.bit_length() == 28]
            if not pool:
                pool = nts
            assert nts == pool[: len(nts)]

    def test_adjacent_levels_share_nonterminals(self):
        chain = _plan("bitpacker")
        for level in range(2, chain.max_level + 1):
            # Level 0 can be all-terminal (its modulus is below one word);
            # every other adjacent pair shares the packed prefix.
            cur = set(chain.moduli_at(level))
            below = set(chain.moduli_at(level - 1))
            shared = cur & below
            assert shared, "adjacent levels must overlap (packed prefix)"

    def test_word_size_sweep_plans(self):
        for w in (24, 36, 50, 64):
            chain = plan_bitpacker_chain(
                n=N, word_bits=w, level_scale_bits=33.0, levels=4,
                base_bits=45.0, ks_digits=2,
            )
            top = chain.moduli_at(chain.max_level)
            assert all(q < 1 << w for q in top)


class TestRnsCkksStructure:
    def test_group_per_level(self):
        chain = _plan("rns-ckks")
        assert len(chain.groups) == chain.max_level + 1
        flat = [q for g in chain.groups for q in g]
        assert tuple(flat) == chain.moduli_at(chain.max_level)

    def test_multi_prime_for_wide_scales(self):
        """Scales above the word need multiple residues (double-prime
        rescaling, paper Sec. 2.3)."""
        chain = plan_rns_ckks_chain(
            n=N, word_bits=28, level_scale_bits=45.0, levels=3,
            base_bits=45.0, ks_digits=2,
        )
        for level in range(1, chain.max_level + 1):
            assert len(chain.groups[level]) >= 2

    def test_single_prime_when_scale_fits(self):
        chain = plan_rns_ckks_chain(
            n=N, word_bits=50, level_scale_bits=45.0, levels=3,
            base_bits=50.0, ks_digits=2,
        )
        for level in range(1, chain.max_level + 1):
            assert len(chain.groups[level]) == 1

    def test_achievable_scale_clamps_unreachable(self):
        minb = min_prime_bits(65536)  # ~19.6 bits
        # A 30-bit scale at 28-bit words needs two primes >= min each.
        eff = achievable_scale_bits(30.0, 27.99, minb)
        assert eff == pytest.approx(2 * minb)
        # Reachable targets pass through.
        assert achievable_scale_bits(45.0, 27.99, minb) == 45.0
        assert achievable_scale_bits(25.0, 27.99, minb) == 25.0


class TestGreedy:
    """Paper Listing 7 (shared subset-product search)."""

    def test_single_prime_match(self):
        cands = terminal_prime_candidates(28, N)
        got = greedy_terminal_primes(24.0, cands)
        assert got is not None and len(got) == 1
        assert abs(math.log2(got[0]) - 24.0) <= 0.5

    def test_multi_prime_match(self):
        cands = terminal_prime_candidates(28, N)
        got = greedy_terminal_primes(70.0, cands, max_terminals=4)
        assert got is not None
        total = sum(math.log2(p) for p in got)
        assert abs(total - 70.0) <= 0.5
        assert len(set(got)) == len(got)

    def test_prefers_fewest(self):
        cands = terminal_prime_candidates(28, N)
        got = greedy_terminal_primes(26.0, cands, max_terminals=4)
        assert len(got) == 1

    def test_infeasible_returns_none(self):
        assert greedy_terminal_primes(5.0, terminal_prime_candidates(28, N)) is None
        assert greedy_terminal_primes(26.0, []) is None

    def test_overshoot_window(self):
        cands = terminal_prime_candidates(28, N)
        got = greedy_prime_product(
            26.0, cands, tolerance_bits=0.01, over_tolerance_bits=2.0
        )
        if got is not None:
            total = sum(math.log2(p) for p in got)
            assert -2.0 <= 26.0 - total <= 0.01


    @pytest.mark.parametrize("target", [24.0, 47.3, 70.0, 101.5])
    def test_excluded_primes_search_like_a_filtered_pool(self, target):
        """The planners pass one shared pool plus the primes to skip;
        the search must see exactly what a pre-filtered list shows it
        (reachability bounds and visiting order included)."""
        pool = terminal_pool(28, N)
        cands = pool.primes
        # The largest (BitPacker's non-terminals), the smallest, and a
        # stride through the middle.
        excluded = set(cands[-6:]) | set(cands[:3]) | set(cands[5::7])
        filtered = [p for p in cands if p not in excluded]
        assert greedy_prime_product(
            target, pool, 0.5, max_count=4, excluded=excluded
        ) == greedy_prime_product(target, filtered, 0.5, max_count=4)
        assert greedy_prime_product(
            target, pool, excluded=set(cands)
        ) is None


class TestLimitFraction:
    def test_preserves_value_to_192_bits(self):
        from fractions import Fraction

        fr = Fraction(2**300 + 12345, 3**120)
        lim = limit_fraction(fr)
        assert abs(log2_fraction(lim) - log2_fraction(fr)) < 1e-9
        rel = abs(lim / fr - 1)
        assert rel < Fraction(1, 1 << 180)

    def test_integers_unchanged(self):
        from fractions import Fraction

        assert limit_fraction(Fraction(1 << 45)) == Fraction(1 << 45)


@settings(max_examples=25, deadline=None)
@given(target=st.floats(min_value=20.0, max_value=80.0))
def test_greedy_window_property(target):
    """Property: any returned set's product is inside the window."""
    cands = terminal_prime_candidates(28, N)
    got = greedy_prime_product(target, cands, 0.5, max_count=4,
                               over_tolerance_bits=0.5)
    if got is not None:
        total = sum(math.log2(p) for p in got)
        assert abs(total - target) <= 0.5 + 1e-9
        assert len(set(got)) == len(got)
