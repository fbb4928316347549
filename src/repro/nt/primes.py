"""Primality testing and NTT-friendly prime enumeration.

CKKS residue moduli must be primes ``p ≡ 1 (mod 2N)`` so that the
negacyclic NTT over ``Z_p[X]/(X^N + 1)`` exists (paper Sec. 3.3, citing
Lyubashevsky et al.).  The paper's modulus-selection algorithm needs three
queries, all provided here:

- the table of all NTT-friendly primes below ``2^w`` for narrow words
  (``w <= 36`` in the paper): a sieve of the progression, milliseconds
  for every table the planners ask for,
- the primes closest below ``2^w`` (non-terminal candidates) for any word
  size: a lazy walk that Miller-Rabin-tests tens of candidates, and
- ~500 log-spaced terminal-prime candidates for wide words, whose
  progression is too long to hold.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from repro.errors import ParameterError

#: Miller-Rabin bases: the first 13 primes.  ``_PSI[k - 1]`` is the
#: smallest odd composite that passes the first ``k`` of them (OEIS
#: A014233), so below it those ``k`` bases decide primality exactly:
#: ``{2, 3, 5, 7}`` below 3,215,031,751, all 13 below 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_SMALL_PRIMES = frozenset((
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
))
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Return True iff ``n`` is prime.

    Exact for ``n < 3,317,044,064,679,887,385,961,981`` (about 3.3e24,
    past 2^81); above that, a strong probable-prime test to 13 bases.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_ntt_friendly(p: int, n: int) -> bool:
    """Return True iff ``p`` is prime and ``p ≡ 1 (mod 2n)``.

    ``n`` is the polynomial degree (a power of two).
    """
    return p % (2 * n) == 1 and is_prime(p)


def _check_degree(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ParameterError(f"polynomial degree must be a power of two >= 2, got {n}")


def ntt_friendly_primes_below(bound: int, n: int) -> Iterator[int]:
    """Yield NTT-friendly primes ``< bound`` in descending order.

    This walks the arithmetic progression ``1 (mod 2n)`` downward from
    ``bound``, so taking the first few items is cheap even for 64-bit
    bounds where exhaustive enumeration is impossible.
    """
    _check_degree(n)
    step = 2 * n
    # Largest candidate ≡ 1 (mod step) strictly below bound.
    candidate = (bound - 2) // step * step + 1
    while candidate > step:
        if is_prime(candidate):
            yield candidate
        candidate -= step


def ntt_friendly_primes_above(start: int, n: int) -> Iterator[int]:
    """Yield NTT-friendly primes ``>= start`` in ascending order."""
    _check_degree(n)
    step = 2 * n
    candidate = (start + step - 2) // step * step + 1
    if candidate < start:
        candidate += step
    while True:
        if is_prime(candidate):
            yield candidate
        candidate += step


def _odd_primes_upto(limit: int) -> np.ndarray:
    """The odd primes ``<= limit`` (plain Eratosthenes), as uint64."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[::2] = False
    sieve[1] = False
    for i in range(3, math.isqrt(limit) + 1, 2):
        if sieve[i]:
            sieve[i * i :: 2 * i] = False
    return np.flatnonzero(sieve).astype(np.uint64)


@lru_cache(maxsize=None)
def all_ntt_friendly_primes(max_bits: int, n: int) -> tuple[int, ...]:
    """All NTT-friendly primes below ``2**max_bits``, ascending.

    The paper (Sec. 3.3) enumerates these exhaustively for word sizes up
    to 36 bits; e.g. with ``n = 2^16`` and 28-bit words there are 244.
    The table is a sieve over the indices ``k`` of the candidates
    ``2n*k + 1``: one bool per candidate, struck by the odd primes up to
    ``sqrt(2^max_bits)``.  That is 6 ms for ``(28, 128)`` and 15 ms for
    ``(36, 2^16)``, the largest tables the repo builds, 0.1 s for
    ``(44, 2^23)``, the largest the planners can ask for, and under a
    second at the limit.  Two limits: ``max_bits <= 44`` and at most 2^26
    candidates (64 MB of flags); past either, use
    :func:`terminal_prime_candidates`.
    """
    _check_degree(n)
    step = 2 * n
    count = ((1 << max_bits) - 2) // step  # candidates are k = 1 .. count
    if max_bits > 44 or count > 1 << 26:
        raise ParameterError(
            f"an exhaustive table above 44 bits or 2^26 candidates is "
            f"impractical (got {max_bits} bits, {max(count, 0)} candidates); "
            "use terminal_prime_candidates instead"
        )
    if count < 1:
        return ()
    base = _odd_primes_upto(math.isqrt(1 << max_bits))
    # p divides 2n*k + 1 exactly when k = k0 (mod p), k0 = -(2n)^-1 mod p:
    # start from -1 and halve once per factor of two in 2n.
    k0 = base - np.uint64(1)
    for _ in range(step.bit_length() - 1):
        k0 = np.where(k0 & 1, k0 + base, k0) >> 1
    # The candidate at k0 is the smallest multiple of p in the progression;
    # where that is p itself (an NTT-friendly base prime) it must survive.
    k0 = np.where(k0 == (base - np.uint64(1)) // np.uint64(step), k0 + base, k0)
    alive = np.ones(count + 1, dtype=bool)
    alive[0] = False
    repeats = base <= count  # the rest hit at most one candidate
    for p, k in zip(base[repeats].tolist(), k0[repeats].tolist()):
        alive[k::p] = False
    once = k0[~repeats]
    alive[once[once <= count]] = False
    # In place, one table-sized transient at a time: what is freed here
    # is heap the caller's workload then runs on.
    table = np.flatnonzero(alive)
    del alive
    table *= step
    table += 1
    return tuple(table.tolist())


@lru_cache(maxsize=None)
def terminal_prime_candidates(
    word_bits: int, n: int, count: int = 500
) -> tuple[int, ...]:
    """Candidate terminal primes below ``2**word_bits``, ascending.

    Mirrors the paper's strategy: the whole table for narrow words (the
    paper does so up to 36 bits at N = 2^16, where the ``1 mod 2N``
    progression has ~half a million candidates), and ``count`` log-spaced
    samples otherwise.  The cutoff is on the candidate-progression
    length, not the word size alone.  Up to it the table costs
    milliseconds, and a longer one would too — but the cutoff decides
    which pool a chain is planned from, so moving it moves every planned
    chain and every table in ``results/``; it stays where it was.
    """
    _check_degree(n)
    progression_length = (1 << word_bits) // (2 * n)
    if word_bits <= 44 and progression_length <= 1 << 20:
        return all_ntt_friendly_primes(word_bits, n)
    low = 2 * n + 1
    high = 1 << word_bits
    ratio = (high / low) ** (1.0 / count)
    found: list[int] = []
    seen: set[int] = set()
    target = float(low)
    for _ in range(count):
        target *= ratio
        for p in ntt_friendly_primes_above(int(target), n):
            if p >= high:
                break
            if p not in seen:
                seen.add(p)
                found.append(p)
            break
    return tuple(sorted(found))
