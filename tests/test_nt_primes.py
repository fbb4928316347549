"""Unit tests for primality and NTT-friendly prime enumeration.

``tests/data/primes_kat.json`` pins four whole prime tables (count, first,
last, sha256 over the elements) and the ``chain_to_dict`` digests of five
planned chains.  It was recorded from the per-candidate Miller-Rabin
enumeration of the commit before the table became a sieve, so it is the
oracle the sieve (and every planner reading its tables) is held to.
Re-record (only when a table's or a planner's definition changes, never
to make a change pass) with
  PYTHONPATH=src python -c "import tests.test_nt_primes as t; t.record_kat()"
"""

import hashlib
import json
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import plan_bitpacker_chain, plan_rns_ckks_chain
from repro.ckks import bootstrap_pipeline
from repro.errors import ParameterError
from repro.eval import common, runner
from repro.nt import primes
from repro.schemes.chain import chain_to_dict
from repro.schemes.selection import largest_primes_below_word
from tests.test_nt_ntt_vectorized import _digest

KAT_PATH = Path(__file__).parent / "data" / "primes_kat.json"
#: ``(max_bits, n)``: the paper's own example (244 primes, Sec. 3.3), the
#: two tables the ladder's 28-bit workloads plan from, and the largest
#: table the paper-figure path builds.
KAT_TABLES = ((28, 65536), (28, 4096), (28, 128), (36, 65536))
_BOOTSTRAP_LEVELS = bootstrap_pipeline.PipelineConfig().depth + 2
#: The three ladder chains (arguments copied from
#: ``benchmarks/ladder/fhe.py::SPECS``; that directory is frozen) and the
#: 36-bit / N = 2^16 pool both planners read on the paper-figure path.
KAT_CHAINS = {
    "logreg_bp28": lambda: plan_bitpacker_chain(
        n=4096, word_bits=28, level_scale_bits=35.0, levels=6,
        base_bits=60.0, ks_digits=2,
    ),
    "logreg_rns60": lambda: plan_rns_ckks_chain(
        n=4096, word_bits=60, level_scale_bits=35.0, levels=6,
        base_bits=60.0, ks_digits=2,
    ),
    "bootstrap_bp28": lambda: plan_bitpacker_chain(
        n=128, word_bits=28, level_scale_bits=35.0, levels=_BOOTSTRAP_LEVELS,
        base_bits=40.0, ks_digits=3,
    ),
    "LogReg-BS19-bitpacker-36": lambda: common.chain_for(
        "LogReg", "BS19", "bitpacker", 36
    ),
    "LogReg-BS19-rns-ckks-36": lambda: common.chain_for(
        "LogReg", "BS19", "rns-ckks", 36
    ),
}


def _table_entry(max_bits: int, n: int) -> dict:
    table = primes.all_ntt_friendly_primes(max_bits, n)
    return {
        "max_bits": max_bits, "n": n, "count": len(table),
        "first": table[0], "last": table[-1], "sha256": _digest(table),
    }


def _chain_digest(label: str) -> str:
    encoded = json.dumps(chain_to_dict(KAT_CHAINS[label]()), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


def record_kat() -> None:
    runner.configure(enabled=False)  # plan here, read no stale disk record
    KAT_PATH.write_text(json.dumps({
        "tables": [_table_entry(*args) for args in KAT_TABLES],
        "chains": {label: _chain_digest(label) for label in KAT_CHAINS},
    }, indent=1) + "\n")


KAT = json.loads(KAT_PATH.read_text())


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert primes.is_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 9, 15, 91, 561, 7917):
            assert not primes.is_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that fool weak tests.
        for c in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041):
            assert not primes.is_prime(c)

    def test_large_known_prime(self):
        assert primes.is_prime((1 << 61) - 1)  # Mersenne prime M61

    def test_large_known_composite(self):
        assert not primes.is_prime((1 << 61) - 3)

    def test_known_ntt_prime(self):
        # 786433 = 3 * 2^18 + 1, the smallest prime ≡ 1 mod 2^17.
        assert primes.is_prime(786433)

    def test_negative(self):
        assert not primes.is_prime(-7)


class TestNttFriendly:
    def test_congruence_requirement(self):
        n = 64
        for p in islice(primes.ntt_friendly_primes_below(1 << 20, n), 10):
            assert p % (2 * n) == 1
            assert primes.is_prime(p)

    def test_descending_order(self):
        got = list(islice(primes.ntt_friendly_primes_below(1 << 24, 128), 8))
        assert got == sorted(got, reverse=True)

    def test_ascending_order(self):
        got = list(islice(primes.ntt_friendly_primes_above(1 << 16, 128), 8))
        assert got == sorted(got)

    def test_above_below_consistency(self):
        n = 64
        below = set(primes.all_ntt_friendly_primes(20, n))
        above = set()
        for p in primes.ntt_friendly_primes_above(2 * n + 1, n):
            if p >= 1 << 20:
                break
            above.add(p)
        assert below == above

    def test_is_ntt_friendly(self):
        assert primes.is_ntt_friendly(786433, 65536)
        assert not primes.is_ntt_friendly(786433 + 2, 65536)
        assert not primes.is_ntt_friendly(131073, 65536)  # 3 * 43691

    def test_bad_degree_rejected(self):
        with pytest.raises(ParameterError):
            next(primes.ntt_friendly_primes_below(1 << 20, 100))


def _miller_rabin_table(max_bits: int, n: int) -> tuple[int, ...]:
    """The table as it was built before the sieve: the oracle."""
    return tuple(
        p for p in range(2 * n + 1, 1 << max_bits, 2 * n) if primes.is_prime(p)
    )


class TestExhaustiveEnumeration:
    @pytest.mark.parametrize(
        "max_bits, n",
        [
            (12, 2),       # NTT-friendly primes below sqrt(2^12): 5, 13, ..., 61
            (4, 2),        # the last candidate, 2^4 - 2n + 1 = 13, is prime
            (20, 8),
            (20, 64),
            (24, 1024),
            (28, 4096),
            (28, 65536),
            (8, 128),      # 2^bits <= 2n + 1: no candidate
            (9, 128),      # one candidate, 257, prime
            (5, 8),        # one candidate, 17, below a bound of 32
            (0, 2),        # the one power of two that is 1 mod 2n
        ],
    )
    def test_sieve_equals_miller_rabin(self, max_bits, n):
        got = primes.all_ntt_friendly_primes(max_bits, n)
        assert got == _miller_rabin_table(max_bits, n)
        assert all(type(p) is int for p in got)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 22), st.integers(1, 10))
    def test_sieve_equals_miller_rabin_property(self, max_bits, log_n):
        assume(max_bits - log_n <= 17)  # the oracle tests <= 2^16 candidates
        n = 1 << log_n
        assert primes.all_ntt_friendly_primes(max_bits, n) == (
            _miller_rabin_table(max_bits, n)
        )

    def test_matches_generator(self):
        n = 128
        exhaustive = primes.all_ntt_friendly_primes(20, n)
        walked = sorted(
            p for p in primes.ntt_friendly_primes_below(1 << 20, n)
        )
        assert list(exhaustive) == walked

    def test_paper_count_order_of_magnitude(self):
        """Paper Sec. 3.3: with N = 2^16 and w = 28 the paper counts 244
        NTT-friendly primes.  So does the table, and the three largest
        ones the repo builds hold what Miller-Rabin found in them."""
        counts = {(e["max_bits"], e["n"]): e["count"] for e in KAT["tables"]}
        assert counts == {
            (28, 65536): 244, (28, 4096): 3_522,
            (28, 128): 114_397, (36, 65536): 43_833,
        }
        assert len(primes.all_ntt_friendly_primes(28, 65536)) == 244

    def test_min_prime_lower_bound(self):
        """All NTT-friendly primes exceed 2N (paper Sec. 3.3)."""
        n = 65536
        smallest = primes.all_ntt_friendly_primes(28, n)[0]
        assert smallest > 2 * n

    def test_refuses_wide_exhaustive(self):
        with pytest.raises(ParameterError):
            primes.all_ntt_friendly_primes(60, 1024)

    @pytest.mark.parametrize("max_bits, n", [(45, 1 << 23), (44, 2), (30, 2)])
    def test_refuses_tables_too_long_to_hold(self, max_bits, n):
        """Past 44 bits whatever the length, and past 2^26 candidates
        whatever the word (``(44, 2)`` has 2^42): refused before anything
        is allocated."""
        with pytest.raises(ParameterError):
            primes.all_ntt_friendly_primes(max_bits, n)

    def test_cache_clear_empties_the_table(self):
        """The ladder's ``enumerate_primes_s`` and ``clear_repro_caches``
        rely on this to time a cold enumeration."""
        primes.all_ntt_friendly_primes(20, 64)
        assert primes.all_ntt_friendly_primes.cache_info().currsize > 0
        primes.all_ntt_friendly_primes.cache_clear()
        assert primes.all_ntt_friendly_primes.cache_info().currsize == 0


def _clear_repro_caches() -> None:
    """Empty every ``functools`` cache on a loaded ``repro`` module, as
    the ladder does before each timed set-up."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr in list(vars(module).values()):
            clear = getattr(attr, "cache_clear", None)
            if callable(clear) and getattr(attr, "__module__", None) == name:
                clear()


class TestPrimalityTestsPerPlan:
    """A count, not a stopwatch: the table tests no candidate, so a cold
    plan pays only for the lazy walkers."""

    @pytest.fixture()
    def is_prime_calls(self, monkeypatch):
        calls = []
        is_prime = primes.is_prime

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(primes, "is_prime", counted)
        _clear_repro_caches()
        return calls

    def test_table_calls_is_prime_never(self, is_prime_calls):
        assert len(primes.all_ntt_friendly_primes(28, 128)) == 114_397
        assert is_prime_calls == []

    def test_cold_bootstrap_plan_is_walker_bound(self, is_prime_calls):
        """Over a million calls when the table tested each of its 1,048,575
        candidates."""
        KAT_CHAINS["bootstrap_bp28"]()
        assert 0 < len(is_prime_calls) < 5_000


class TestTerminalCandidates:
    def test_narrow_words_exhaustive(self):
        n = 1024
        assert primes.terminal_prime_candidates(24, n) == (
            primes.all_ntt_friendly_primes(24, n)
        )

    def test_wide_words_sampled(self):
        cands = primes.terminal_prime_candidates(50, 1024, count=100)
        assert 30 < len(cands) <= 110
        assert all(primes.is_ntt_friendly(p, 1024) for p in cands)
        assert all(p < 1 << 50 for p in cands)
        assert list(cands) == sorted(cands)

    def test_min_bits_filter(self):
        cands = primes.terminal_prime_candidates(24, 1024, min_bits=20)
        assert all(p >= 1 << 20 for p in cands)


class TestLargestBelowWord:
    def test_largest_below_word(self):
        got = largest_primes_below_word(256, 28, 5)
        assert len(got) == 5
        assert got == sorted(got, reverse=True)
        assert all(p < 1 << 28 for p in got)
        # Packed: the largest should be within ~1.5 bits of the word.
        assert got[0] > 1 << 26


class TestKnownAnswers:
    @pytest.mark.parametrize(
        "entry", KAT["tables"], ids=lambda e: f"{e['max_bits']}-{e['n']}"
    )
    def test_table(self, entry):
        assert _table_entry(entry["max_bits"], entry["n"]) == entry

    @pytest.mark.parametrize("label", KAT_CHAINS)
    def test_planned_chain(self, label):
        assert _chain_digest(label) == KAT["chains"][label]
