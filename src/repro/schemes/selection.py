"""Shared prime-selection helpers for the chain planners."""

from __future__ import annotations

import bisect
import math
from array import array
from fractions import Fraction
from functools import lru_cache
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import ParameterError, PlanningError
from repro.nt.primes import (
    ntt_friendly_primes_above,
    ntt_friendly_primes_below,
    terminal_prime_candidates,
)


def limit_fraction(value, bits: int = 192):
    """Round a Fraction to a dyadic rational with a ``bits``-bit mantissa.

    The canonical-scale recurrence ``S_{L-1} = S_L^2 / q`` squares the
    denominator at every level, so exact rationals grow doubly
    exponentially down a chain.  Planners clamp each level's scale to 192
    significant bits — about 150 bits below anything the precision
    experiments can observe — keeping all bookkeeping effectively exact
    at constant cost.
    """
    num, den = value.numerator, value.denominator
    if den == 1 or num == 0:
        return value
    shift = bits - (num.bit_length() - den.bit_length())
    if shift >= 0:
        mantissa = ((num << shift) + den // 2) // den
        return Fraction(mantissa, 1 << shift)
    scaled_den = den << -shift
    mantissa = (num + scaled_den // 2) // scaled_den
    return Fraction(mantissa << -shift)


def log2_int(value: int) -> float:
    """``log2`` of a big integer without float overflow."""
    top = value >> max(0, value.bit_length() - 64)
    return math.log2(top) + max(0, value.bit_length() - 64)


def log2_fraction(value) -> float:
    """``log2`` of a Fraction without float overflow."""
    return log2_int(value.numerator) - log2_int(value.denominator)


def pow2_scale(bits: float) -> Fraction:
    """The integer scale nearest ``2^bits`` (a chain's free top scale)."""
    return Fraction(round(2.0 ** bits))


def normalize_targets(
    level_scale_bits: Sequence[float] | float, levels: int | None
) -> list[float]:
    """Per-level target scales (bits) for levels ``0..Lmax``, from either
    form both planners accept: one number plus ``levels``, or a list."""
    if isinstance(level_scale_bits, (int, float)):
        if levels is None:
            raise ParameterError("levels is required with a scalar scale target")
        return [float(level_scale_bits)] * (levels + 1)
    targets = [float(t) for t in level_scale_bits]
    if levels is not None and levels + 1 != len(targets):
        raise ParameterError(
            f"levels={levels} inconsistent with {len(targets)} scale targets"
        )
    if len(targets) < 1:
        raise ParameterError("need at least one level scale target")
    return targets


def min_prime_bits(n: int) -> float:
    """Bit width of the smallest NTT-friendly prime for degree ``n``.

    All NTT-friendly primes exceed ``2n`` (paper Sec. 3.3), so this lower
    bound is what makes very small scales unreachable at large ``n``.
    """
    smallest = next(ntt_friendly_primes_above(2 * n + 1, n))
    return math.log2(smallest)


def smallest_primes(n: int, count: int, taken: Iterable[int]) -> list[int]:
    """The ``count`` smallest NTT-friendly primes not already ``taken``."""
    taken_set = set(taken)
    out: list[int] = []
    for p in ntt_friendly_primes_above(2 * n + 1, n):
        if p in taken_set:
            continue
        out.append(p)
        if len(out) == count:
            return out
    raise PlanningError(f"could not find {count} small NTT-friendly primes")


def largest_primes_below_word(
    n: int, word_bits: int, count: int, taken: Iterable[int] = ()
) -> list[int]:
    """The ``count`` largest NTT-friendly primes below ``2^word_bits``."""
    taken_set = set(taken)
    out: list[int] = []
    for p in ntt_friendly_primes_below(1 << word_bits, n):
        if p in taken_set:
            continue
        out.append(p)
        if len(out) == count:
            return out
    raise PlanningError(
        f"only found {len(out)} of {count} word-sized primes below "
        f"2^{word_bits} for n={n}"
    )


def usable_word_bits(n: int, word_bits: int) -> float:
    """log2 of the largest NTT-friendly prime below ``2^word_bits``."""
    return math.log2(largest_primes_below_word(n, word_bits, 1)[0])


#: Escalating (undershoot, overshoot) acceptance windows, in bits.  The
#: paper's half-bit window is tried first; when NTT-friendly prime gaps
#: make a target unreachable (small primes are sparse at large N), the
#: overshoot bound is relaxed — overshooting only grows the modulus, and
#: top-down target re-anchoring keeps lower levels' scales on target.
ACCEPTANCE_WINDOWS = (
    (0.5, 0.5),
    (0.5, 1.0),
    (0.5, 2.0),
    (1.0, 4.0),
    (2.0, 8.0),
    (4.0, 16.0),
)


class PrimePool(NamedTuple):
    """Candidate primes for :func:`greedy_prime_product`."""

    #: Ascending, distinct.
    primes: Sequence[int]
    #: ``log2`` of each prime (what the search bisects), packed: a
    #: cached pool lives as long as the process and can hold ~100k
    #: primes (28-bit words on a 128-coefficient ring).
    bits: Sequence[float]

    @classmethod
    def of(cls, primes: Sequence[int]) -> "PrimePool":
        return cls(primes, array("d", map(math.log2, primes)))


@lru_cache(maxsize=None)
def terminal_pool(word_bits: int, n: int) -> PrimePool:
    """Every terminal candidate below the word, tabulated once per
    ``(word_bits, n)``: the pool reaches ~44k primes (36-bit words at
    N = 2^16) and a word sweep runs thousands of searches over it."""
    return PrimePool.of(terminal_prime_candidates(word_bits, n))


def greedy_prime_product(
    target_bits: float,
    candidates: PrimePool | Iterable[int],
    tolerance_bits: float = 0.5,
    max_count: int = 5,
    over_tolerance_bits: float | None = None,
    excluded: Collection[int] = frozenset(),
) -> tuple[int, ...] | None:
    """Paper Listing 7: find distinct primes whose product matches a target.

    Accepts a product within ``-over_tolerance_bits`` (overshoot) and
    ``+tolerance_bits`` (undershoot) of ``2^target_bits``, preferring the
    fewest primes (the paper's greedy stops at the first success).  Each
    slot aims for an even split of the remaining bits and the last slot
    targets the exact remainder, where NTT-friendly prime density nearly
    always offers a match; a small branching factor bounds the search.
    Candidates in ``excluded`` are skipped, exactly as if they had been
    filtered out of the pool.  Returns ``None`` when no combination
    exists.
    """
    over = tolerance_bits if over_tolerance_bits is None else over_tolerance_bits
    if not isinstance(candidates, PrimePool):
        candidates = PrimePool.of(sorted(set(candidates)))
    pool, bits = candidates
    # Reachability is judged on the smallest and largest prime the
    # search may actually use.
    first, last = 0, len(pool) - 1
    while first <= last and pool[first] in excluded:
        first += 1
    while last >= first and pool[last] in excluded:
        last -= 1
    if first > last:
        return None
    min_bits_avail, max_bits_avail = bits[first], bits[last]
    branch = 20
    node_budget = 30_000

    def nearest_indices(ideal: float):
        """Pool indices ordered by log-distance from ``ideal`` (lazy)."""
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

    def recurse(
        remaining: float, slots: int, chosen: tuple[int, ...], nodes: list[int]
    ) -> tuple[int, ...] | None:
        if -over <= remaining <= tolerance_bits:
            return chosen
        if slots == 0:
            return None
        if (
            remaining < min_bits_avail - over
            or remaining > slots * max_bits_avail + tolerance_bits
        ):
            return None  # unreachable with the remaining slots
        nodes[0] += 1
        if nodes[0] > node_budget:
            return None
        # Aim each slot at an even split of what is left; the final slot
        # targets the exact remainder, where NTT-friendly prime density
        # nearly always offers a match within the window.
        ideal = remaining if slots == 1 else remaining / slots
        tried = 0
        for idx in nearest_indices(ideal):
            prime = pool[idx]
            if (
                prime in excluded
                or prime in chosen
                or bits[idx] > remaining + over
            ):
                continue
            result = recurse(
                remaining - bits[idx], slots - 1, chosen + (prime,), nodes
            )
            if result is not None:
                return result
            tried += 1
            if tried >= branch:
                return None
        return None

    try:
        for count in range(1, max_count + 1):
            result = recurse(target_bits, count, (), [0])
            if result is not None:
                return tuple(sorted(result, reverse=True))
        return None
    finally:
        # ``recurse`` reaches itself through its closure: a cycle that
        # would keep the closure (and an ad hoc pool's tables, megabytes
        # on a small ring) alive until whenever the collector next runs.
        del recurse


def choose_special_moduli(
    n: int,
    word_bits: int,
    level_moduli: Sequence[int],
    ks_digits: int,
    taken: Iterable[int],
    margin_bits: float = 1.0,
) -> tuple[int, ...]:
    """Special primes ``P`` for hybrid keyswitching.

    ``P`` must exceed the largest digit product so keyswitch noise stays
    below one bit of the scale.  Digits partition the top level's moduli
    into ``ks_digits`` contiguous groups; we cover the largest group plus
    ``margin_bits`` using word-sized primes.
    """
    groups = np.array_split(np.arange(len(level_moduli)), max(1, ks_digits))
    max_bits = 0.0
    for part in groups:
        if len(part) == 0:
            continue
        bits = sum(math.log2(level_moduli[i]) for i in part)
        max_bits = max(max_bits, bits)
    needed = max_bits + margin_bits
    taken_set = set(taken)
    chosen: list[int] = []
    total = 0.0
    for p in ntt_friendly_primes_below(1 << word_bits, n):
        if p in taken_set:
            continue
        chosen.append(p)
        total += math.log2(p)
        if total >= needed:
            return tuple(chosen)
    raise PlanningError(
        f"could not assemble {needed:.1f} bits of special moduli below "
        f"2^{word_bits} for n={n}"
    )
