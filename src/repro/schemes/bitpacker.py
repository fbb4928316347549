"""BitPacker: packed fixed-width residues, decoupled from scales (Sec. 3).

A BitPacker level consists of *non-terminal* residues — the largest
NTT-friendly primes below the hardware word — plus one or two *terminal*
residues chosen by a greedy DFS (paper Listing 7) so the level's total
modulus lands within 0.5 bits of its target.  That choice is all of
BitPacker: rescale (Listing 4) and adjust (Listing 6) are
:class:`~repro.schemes.chain.ModulusChain`'s, whose ``scaleUp`` brings in
the destination's terminal moduli before the multi-modulus ``scaleDown``
sheds the source's, temporarily growing the ciphertext as in Fig. 6.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import prod
from typing import Collection, Iterable, Sequence

from repro.errors import PlanningError
from repro.schemes.chain import LevelSpec, ModulusChain
from repro.schemes.selection import (
    ACCEPTANCE_WINDOWS,
    PrimePool,
    choose_special_moduli,
    greedy_prime_product,
    largest_primes_below_word,
    limit_fraction,
    log2_fraction,
    log2_int,
    min_prime_bits,
    normalize_targets,
    pow2_scale,
    terminal_pool,
)

#: Accept a level modulus within this many bits of its target — the
#: paper's ``sqrt(2)/2 < target_q < sqrt(2)`` window (Listing 7).
DEFAULT_TOLERANCE_BITS = 0.5


def greedy_terminal_primes(
    target_bits: float,
    candidates: PrimePool | Iterable[int],
    tolerance_bits: float = DEFAULT_TOLERANCE_BITS,
    max_terminals: int = 5,
    over_tolerance_bits: float | None = None,
    excluded: Collection[int] = frozenset(),
) -> tuple[int, ...] | None:
    """Paper Listing 7: terminal primes whose product matches a target.

    Thin wrapper over :func:`repro.schemes.selection.greedy_prime_product`
    (shared with the RNS-CKKS planner's multi-prime groups).
    """
    return greedy_prime_product(
        target_bits, candidates, tolerance_bits, max_terminals,
        over_tolerance_bits, excluded,
    )


def plan_bitpacker_chain(
    n: int,
    word_bits: int,
    level_scale_bits: Sequence[float] | float,
    levels: int | None = None,
    base_bits: float = 60.0,
    ks_digits: int = 3,
    max_log_q: float | None = None,
    tolerance_bits: float = DEFAULT_TOLERANCE_BITS,
) -> ModulusChain:
    """Plan a BitPacker chain (paper Sec. 3.3 / Fig. 8).

    Arguments mirror :func:`~repro.schemes.rns_ckks.plan_rns_ckks_chain`
    so the two schemes can be driven by identical program constraints.
    """
    targets = normalize_targets(level_scale_bits, levels)
    max_level = len(targets) - 1
    min_term_bits = min_prime_bits(n)

    # Non-terminal pool: largest NTT-friendly primes below the word size,
    # descending, enough to cover the widest modulus we will ever need.
    top_bits = base_bits + sum(targets[1:]) + tolerance_bits
    pool_count = max(1, math.ceil(top_bits / max(word_bits - 1, 1)) + 2)
    pool = largest_primes_below_word(n, word_bits, pool_count)
    pool_bits = [math.log2(p) for p in pool]
    prefix_bits = [0.0]
    for b in pool_bits:
        prefix_bits.append(prefix_bits[-1] + b)

    # Terminal candidates: every NTT-friendly prime below the word that
    # is not a non-terminal.  Terminals may be *reused* across levels:
    # bpRescale/bpAdjust move between bases via set differences (paper
    # Listings 4 and 6), so a prime shared by source and destination is
    # simply kept, never duplicated within a basis.
    candidates = terminal_pool(word_bits, n)

    specs_rev: list[LevelSpec] = []
    scales: dict[int, Fraction] = {max_level: pow2_scale(targets[max_level])}
    target_q_bits = base_bits + sum(targets[1:])
    prev_q: int | None = None
    for level in range(max_level, -1, -1):
        moduli, window = _pick_level_moduli(
            target_q_bits,
            pool,
            prefix_bits,
            candidates,
            min_term_bits,
            tolerance_bits,
        )
        q_actual = prod(moduli)
        if prev_q is not None:
            scales[level] = limit_fraction(
                scales[level + 1] ** 2 * Fraction(q_actual, prev_q)
            )
            drift = abs(log2_fraction(scales[level]) - targets[level])
            if drift > window + 1e-6:
                raise PlanningError(
                    f"level {level} scale off target by {drift:.2f} bits "
                    f"(window {window})"
                )
        specs_rev.append(LevelSpec(moduli=moduli, scale=scales[level]))
        prev_q = q_actual
        if level > 0:
            # Re-anchor the next target on actuals (Kim et al. / Sec. 3.3):
            # log2 Q_{L-1} = log2 Q_L + T_{L-1} - 2*log2 S_L.
            target_q_bits = (
                log2_int(q_actual)
                + targets[level - 1]
                - 2 * log2_fraction(scales[level])
            )

    specs = list(reversed(specs_rev))
    if max_log_q is not None and specs[-1].log2_q > max_log_q:
        raise PlanningError(
            f"planned chain needs {specs[-1].log2_q:.0f} modulus bits, above "
            f"the security cap of {max_log_q:.0f}"
        )
    taken = set(pool) | {
        q for spec in specs for q in spec.moduli
    }
    specials = choose_special_moduli(
        n, word_bits, specs[-1].moduli, ks_digits, taken
    )
    return ModulusChain(
        scheme="bitpacker",
        n=n,
        word_bits=word_bits,
        levels=specs,
        special_moduli=specials,
        ks_digits=ks_digits,
    )


def _pick_level_moduli(
    target_q_bits: float,
    pool: Sequence[int],
    prefix_bits: Sequence[float],
    candidates: PrimePool,
    min_term_bits: float,
    tolerance_bits: float,
) -> tuple[tuple[int, ...], float]:
    """Select one level's moduli: packed non-terminals + greedy terminals.

    Returns the chosen moduli and the acceptance window (bits) they were
    found under, which bounds this level's scale drift.
    """
    non_terminals = frozenset(pool)
    max_nt = 0
    while (
        max_nt < len(pool)
        and prefix_bits[max_nt + 1] <= target_q_bits + tolerance_bits
    ):
        max_nt += 1
    windows = [
        (max(under, tolerance_bits), max(over, tolerance_bits))
        for under, over in ACCEPTANCE_WINDOWS
    ]
    for under, over in windows:
        for nt_count in range(max_nt, max(-1, max_nt - 14), -1):
            remainder = target_q_bits - prefix_bits[nt_count]
            if -over <= remainder <= under:
                if nt_count > 0:
                    return tuple(pool[:nt_count]), max(under, over)
                continue
            if remainder < min_term_bits - over:
                continue  # no terminal prime is small enough; free a word
            terminals = greedy_terminal_primes(
                remainder, candidates, under, over_tolerance_bits=over,
                excluded=non_terminals,
            )
            if terminals is not None:
                return tuple(pool[:nt_count]) + terminals, max(under, over)
    raise PlanningError(
        f"no residue combination matches a {target_q_bits:.1f}-bit modulus "
        f"even with relaxed windows"
    )
