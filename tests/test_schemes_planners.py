"""Planner invariants for both schemes (paper Secs. 2.3 and 3.3)."""

import bisect
import math
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LevelExhaustedError, ParameterError
from repro.nt.primes import is_ntt_friendly, terminal_prime_candidates
from repro.schemes import (
    plan_bitpacker_chain,
    plan_chain,
    plan_rns_ckks_chain,
)
from repro.schemes.rns_ckks import achievable_scale_bits
from repro.schemes.selection import (
    ACCEPTANCE_WINDOWS,
    PrimePool,
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
        # The paper's parameters (Sec. 3.3): N = 2^16, twenty 40-bit levels.
        chain = plan_bitpacker_chain(
            n=65536, word_bits=28, level_scale_bits=40.0, levels=20,
            base_bits=60.0, ks_digits=3,
        )
        assert chain.max_level == 20


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
        got = greedy_prime_product(24.0, cands)
        assert got is not None and len(got) == 1
        assert abs(math.log2(got[0]) - 24.0) <= 0.5

    def test_multi_prime_match(self):
        cands = terminal_prime_candidates(28, N)
        got = greedy_prime_product(70.0, cands, max_count=4)
        assert got is not None
        total = sum(math.log2(p) for p in got)
        assert abs(total - 70.0) <= 0.5
        assert len(set(got)) == len(got)

    def test_prefers_fewest(self):
        cands = terminal_prime_candidates(28, N)
        got = greedy_prime_product(26.0, cands, max_count=4)
        assert len(got) == 1

    def test_infeasible_returns_none(self):
        assert greedy_prime_product(5.0, terminal_prime_candidates(28, N)) is None
        assert greedy_prime_product(26.0, []) is None

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


# ----------------------------------------------------------------------
# The search before its walk was inlined, kept as the reference for the
# visit order: the same nodes in the same order, with the same ``tried``,
# ``branch`` and ``node_budget`` accounting, give the same answer.
# ``nodes_seen`` collects each count's node total.
# ----------------------------------------------------------------------
def reference_greedy(target_bits, candidates, tolerance_bits=0.5,
                     max_count=5, over_tolerance_bits=None,
                     excluded=frozenset(), nodes_seen=None):
    over = tolerance_bits if over_tolerance_bits is None else over_tolerance_bits
    pool = sorted(set(candidates))
    bits = [math.log2(p) for p in pool]
    first, last = 0, len(pool) - 1
    while first <= last and pool[first] in excluded:
        first += 1
    while last >= first and pool[last] in excluded:
        last -= 1
    if first > last:
        return None
    min_bits_avail, max_bits_avail = bits[first], bits[last]
    branch, node_budget = 20, 30_000

    def nearest_indices(ideal):
        hi = bisect.bisect_left(bits, ideal)
        lo = hi - 1
        while lo >= 0 or hi < len(bits):
            if lo < 0:
                yield hi
                hi += 1
            elif hi >= len(bits):
                yield lo
                lo -= 1
            elif ideal - bits[lo] <= bits[hi] - ideal:
                yield lo
                lo -= 1
            else:
                yield hi
                hi += 1

    def recurse(remaining, slots, chosen, nodes):
        if -over <= remaining <= tolerance_bits:
            return chosen
        if slots == 0:
            return None
        if (remaining < min_bits_avail - over
                or remaining > slots * max_bits_avail + tolerance_bits):
            return None
        nodes[0] += 1
        if nodes[0] > node_budget:
            return None
        ideal = remaining if slots == 1 else remaining / slots
        tried = 0
        for idx in nearest_indices(ideal):
            prime = pool[idx]
            if prime in excluded or prime in chosen or bits[idx] > remaining + over:
                continue
            result = recurse(remaining - bits[idx], slots - 1,
                             chosen + (prime,), nodes)
            if result is not None:
                return result
            tried += 1
            if tried >= branch:
                return None
        return None

    for count in range(1, max_count + 1):
        nodes = [0]
        result = recurse(target_bits, count, (), nodes)
        if nodes_seen is not None:
            nodes_seen.append(nodes[0])
        if result is not None:
            return tuple(sorted(result, reverse=True))
    return None


_TABLE = terminal_prime_candidates(28, N)
#: 40 primes of 24.00-24.06 bits, and a five-prime target they reach at
#: every slot but match only exactly: the search runs out of nodes.
_NARROW = [p for p in _TABLE if 24.0 <= math.log2(p) <= 24.2][::4][:40]
_EXHAUSTING = dict(target_bits=120.15, candidates=_NARROW, tolerance_bits=0.0,
                   max_count=5, over_tolerance_bits=0.0,
                   excluded=frozenset(_NARROW[::9]))
#: Two primes whose log2 midpoint is an exact float tie: the walk
#: takes the smaller first.
_TIE = (7681, 10753)
_TIE_MID = (math.log2(_TIE[0]) + math.log2(_TIE[1])) / 2
#: Twenty primes below the target, all nearer than the one above it,
#: which only a 21st try would reach.
_BELOW = _TABLE[1000:1020]
_ABOVE = _TABLE[1200]
_BITS = [math.log2(p) for p in _TABLE]
#: Searches that settle a node as soon as both sides of its walk are
#: dead or walked out: the down side past the window at a leaf, past
#: ``reach`` at an inner slot (the top prime's child first dies at its
#: leaf), the up side below ``-over`` (rounding at the walk's top) and
#: by the top-of-walk test (every band prime leaves ``rest`` below
#: ``floor``, and even the largest leaves 6 bits).
_DEAD_LEAF_DOWN = dict(target_bits=_BITS[500] + 1e-3, candidates=_TABLE,
                       tolerance_bits=0.0, max_count=1,
                       over_tolerance_bits=0.0, excluded=frozenset())
_DEAD_INNER_DOWN = dict(target_bits=2 * _BITS[39] - 1e-6,
                        candidates=_TABLE[:40], tolerance_bits=0.0,
                        max_count=2, over_tolerance_bits=0.0,
                        excluded=frozenset())
_DEAD_BELOW_OVER = dict(target_bits=_BITS[0] - 0.3, candidates=_TABLE,
                        tolerance_bits=0.0, max_count=1,
                        over_tolerance_bits=0.3, excluded=frozenset())
_BAND = _TABLE[bisect.bisect_left(_BITS, 18.0):bisect.bisect_left(_BITS, 24.0)]
_DEAD_TOP = dict(target_bits=30.0,
                 candidates=[_TABLE[0], *_BAND[::len(_BAND) // 30][:30]],
                 tolerance_bits=0.0, max_count=2, over_tolerance_bits=0.0,
                 excluded=frozenset())


@st.composite
def _searches(draw):
    picks = draw(st.lists(st.integers(0, len(_TABLE) - 1), min_size=1,
                          max_size=40, unique=True))
    pool = sorted(_TABLE[i] for i in picks)
    return dict(
        target_bits=draw(st.floats(0.0, 130.0)),
        candidates=pool,
        tolerance_bits=draw(st.floats(0.0, 2.0)),
        max_count=draw(st.integers(1, 5)),
        over_tolerance_bits=draw(st.none() | st.floats(-1.0, 8.0)),
        excluded=frozenset(draw(st.lists(st.sampled_from(pool), max_size=8))),
    )


class TestGreedyVisitOrder:
    @settings(max_examples=60, deadline=None)
    @given(search=_searches())
    @example(search=_EXHAUSTING)
    @example(search=dict(target_bits=20.0, candidates=_TABLE, tolerance_bits=0.5,
                         max_count=1, over_tolerance_bits=-0.3,
                         excluded=frozenset()))
    @example(search=dict(target_bits=_TIE_MID, candidates=_TIE,
                         tolerance_bits=_TIE_MID - math.log2(_TIE[0]),
                         max_count=1, over_tolerance_bits=1.0,
                         excluded=frozenset()))
    @example(search=dict(target_bits=math.log2(_TABLE[7]), candidates=_TABLE[:20],
                         tolerance_bits=0.0, max_count=2,
                         over_tolerance_bits=0.0, excluded=frozenset()))
    @example(search=dict(target_bits=math.log2(_BELOW[-1]) + 1e-9,
                         candidates=[*_BELOW, _ABOVE], tolerance_bits=0.0,
                         max_count=1, over_tolerance_bits=1.0,
                         excluded=frozenset()))
    # The down side dies at once, but the 20th candidate above is taken.
    @example(search=dict(target_bits=math.log2(_BELOW[-1]) + 1e-9,
                         candidates=[*_BELOW[1:], _ABOVE], tolerance_bits=0.0,
                         max_count=1, over_tolerance_bits=1.0,
                         excluded=frozenset()))
    @example(search=_DEAD_LEAF_DOWN)
    @example(search=_DEAD_INNER_DOWN)
    @example(search=_DEAD_BELOW_OVER)
    @example(search=_DEAD_TOP)
    # A negative overshoot lifts ``floor``: a down candidate whose ``rest``
    # is below it cannot recurse, but the side is not dead, since the
    # next one down leaves more.
    @example(search=dict(target_bits=66.12,
                         candidates=[3361793, 3428353, 3922433, 4323329,
                                     4784641],
                         tolerance_bits=1.875, max_count=5,
                         over_tolerance_bits=-0.66, excluded=frozenset()))
    def test_matches_the_generator_walk(self, search):
        want = reference_greedy(**search)
        assert greedy_prime_product(**search) == want
        pool = PrimePool.of(search["candidates"])
        assert greedy_prime_product(**{**search, "candidates": pool}) == want

    def test_the_examples_hit_ties_bounds_and_the_branch_limit(self):
        half = _TIE_MID - math.log2(_TIE[0])
        assert half == math.log2(_TIE[1]) - _TIE_MID
        assert greedy_prime_product(_TIE_MID, _TIE, half, 1, 1.0) == _TIE[:1]
        # A prime exactly at ``remaining + over`` is usable.
        assert greedy_prime_product(
            math.log2(_TABLE[7]), _TABLE[:20], 0.0, 2, 0.0) == (_TABLE[7],)
        above = math.log2(_ABOVE) - math.log2(_BELOW[-1])
        assert above > math.log2(_BELOW[-1]) - math.log2(_BELOW[0])
        assert above < 1.0
        target = math.log2(_BELOW[-1]) + 1e-9
        assert greedy_prime_product(target, [*_BELOW, _ABOVE], 0.0, 1,
                                    1.0) is None
        assert greedy_prime_product(target, [*_BELOW[1:], _ABOVE], 0.0, 1,
                                    1.0) == (_ABOVE,)

    def test_dead_walks_read_fewer_bits(self):
        """A 60-bit target over the 28-bit terminal pool at N = 2^16 fails
        under the two narrowest windows and finds three primes under the
        rest; the half-bit window's failure reads at most 60 % of the
        1,548 log-sizes that walking every node to the branch limit
        reads."""
        pool = terminal_pool(28, 2**16)

        class Counting(list):
            reads = 0

            def __getitem__(self, index):
                Counting.reads += 1
                return list.__getitem__(self, index)

        answers, reads = [], []
        for tolerance, over in ACCEPTANCE_WINDOWS:
            Counting.reads = 0
            counted = PrimePool(pool.primes, Counting(pool.bits))
            answers.append(greedy_prime_product(60.0, counted, tolerance, 4,
                                                over))
            reads.append(Counting.reads)
        found = (2752513, 1179649, 786433)
        assert answers == [None, None, found, found, found, found]
        assert reads[0] <= 0.6 * 1548

    def test_the_example_exhausts_the_budget(self):
        nodes = []
        assert reference_greedy(**_EXHAUSTING, nodes_seen=nodes) is None
        assert len(_NARROW) == 40 and nodes[-1] > 30_000
