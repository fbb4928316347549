"""Baseline RNS-CKKS: scale-linked residues (Cheon et al., paper Sec. 2.3).

Each level consumes a *group* of residue moduli whose product tracks that
level's scale.  With scales that fit the hardware word a group is one
prime; wider scales are split across several primes (multi-prime
rescaling, as in CraterLake/SHARP); and when the target scale is below
what NTT-friendly primes can reach at a narrow word (e.g. a 30-bit scale
at 28-bit words), the smallest achievable scale is used — the unavoidable
RNS-CKKS inefficiency the paper describes in Sec. 5.

Rescale (Listing 1) sheds the level's group; adjust (Listing 2, Kim
et al.'s reduced-error variant) multiplies by a constant and rescales so
the destination scale matches rescaled products exactly.  Both are
:class:`~repro.schemes.chain.ModulusChain`'s level moves with nothing to
add: a level's moduli here are the level below's plus its group.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import prod
from typing import Sequence

from repro.errors import PlanningError
from repro.schemes.chain import LevelSpec, ModulusChain
from repro.schemes.selection import (
    ACCEPTANCE_WINDOWS,
    choose_special_moduli,
    greedy_prime_product,
    limit_fraction,
    log2_fraction,
    min_prime_bits,
    normalize_targets,
    pow2_scale,
    smallest_primes,
    terminal_pool,
    usable_word_bits,
)


def plan_rns_ckks_chain(
    n: int,
    word_bits: int,
    level_scale_bits: Sequence[float] | float,
    levels: int | None = None,
    base_bits: float = 60.0,
    ks_digits: int = 3,
    max_log_q: float | None = None,
    snap_scales: bool = False,
) -> ModulusChain:
    """Plan an RNS-CKKS chain.

    Parameters
    ----------
    level_scale_bits:
        Target working scale (in bits) for each level ``0..Lmax``, or a
        single number used at every level.  This is the program's
        level -> target-scale map from Fig. 8.
    levels:
        Number of levels above 0 (required if ``level_scale_bits`` is a
        scalar).
    base_bits:
        Width of the level-0 modulus ``Qmin`` needed for decryption or
        bootstrapping.
    max_log_q:
        Optional security cap on ``log2 Q`` at the top level.
    snap_scales:
        Snap each level's canonical scale back to its target when prime
        scarcity forces a group outside the half-bit window, modeling the
        scale-correction constants real programs fold into plaintext
        multiplies.  Keeps deep narrow-word chains' residue counts
        faithful for *performance modeling*, but makes canonical scales
        diverge from what runtime rescales actually produce — so it must
        stay off (the default) for chains used in functional evaluation.
    """
    targets = normalize_targets(level_scale_bits, levels)
    max_level = len(targets) - 1
    min_bits = min_prime_bits(n)
    usable_bits = usable_word_bits(n, word_bits)
    # RNS-CKKS cannot realize every requested scale: residues are primes
    # in [min_bits, word] and a scale is a product of 1..k of them.  When
    # a target falls in an unreachable gap, the paper uses the smallest
    # achievable scale above it (Sec. 5) — which consumes modulus faster,
    # an inefficiency BitPacker does not share.
    targets = [
        achievable_scale_bits(t, usable_bits, min_bits) for t in targets
    ]

    taken: set[int] = set()
    # Base (level-0) modulus group.
    base_group = _choose_scale_group(
        float(base_bits), n, word_bits, usable_bits, min_bits, taken
    )
    taken.update(base_group)

    # Working scale at the top level is a free choice; 2^T exactly.
    scales: dict[int, Fraction] = {max_level: pow2_scale(targets[max_level])}
    groups: dict[int, tuple[int, ...]] = {0: base_group}
    for level in range(max_level, 0, -1):
        s_bits = log2_fraction(scales[level])
        group_bits = 2 * s_bits - targets[level - 1]
        group = _choose_scale_group(
            group_bits, n, word_bits, usable_bits, min_bits, taken
        )
        taken.update(group)
        groups[level] = group
        scales[level - 1] = limit_fraction(scales[level] ** 2 / prod(group))
        if snap_scales:
            drift = abs(
                log2_fraction(scales[level - 1]) - targets[level - 1]
            )
            if drift > 1.0:
                scales[level - 1] = pow2_scale(targets[level - 1])

    level_specs: list[LevelSpec] = []
    moduli: tuple[int, ...] = ()
    for level in range(0, max_level + 1):
        moduli = moduli + groups[level]
        level_specs.append(LevelSpec(moduli=moduli, scale=scales[level]))

    if max_log_q is not None and level_specs[-1].log2_q > max_log_q:
        raise PlanningError(
            f"planned chain needs {level_specs[-1].log2_q:.0f} modulus bits, "
            f"above the security cap of {max_log_q:.0f}"
        )
    specials = choose_special_moduli(
        n, word_bits, level_specs[-1].moduli, ks_digits, taken
    )
    return ModulusChain(
        scheme="rns-ckks",
        n=n,
        word_bits=word_bits,
        levels=level_specs,
        special_moduli=specials,
        ks_digits=ks_digits,
    )


# ----------------------------------------------------------------------
def achievable_scale_bits(
    target_bits: float, usable_bits: float, min_bits: float
) -> float:
    """Smallest RNS-CKKS-achievable scale at or above ``target_bits``.

    A scale is realized by ``k = ceil(target / word)`` residues of
    ``target / k`` bits each; when those would be below the smallest
    NTT-friendly prime, the level is forced up to ``k`` minimum-size
    primes (the paper's 30-bit-scale example at 28-bit words).
    """
    if target_bits < min_bits:
        return min_bits
    k = max(1, math.ceil(target_bits / usable_bits))
    if target_bits / k < min_bits:
        return k * min_bits
    return target_bits


def _choose_scale_group(
    group_bits: float,
    n: int,
    word_bits: int,
    usable_bits: float,
    min_bits: float,
    taken: set[int],
) -> tuple[int, ...]:
    """Pick the residue group whose product best matches ``group_bits``.

    This realizes RNS-CKKS's scale/residue link, including multi-prime
    rescaling (CraterLake's double-prime rescaling: e.g. a 50-bit scale
    as two ~25-bit residues whose *product* hits the target, which is
    what keeps selection feasible when primes of one exact size are
    scarce) and the smallest-achievable-scale fallback for targets below
    what NTT-friendly primes allow (paper Sec. 5).
    """
    group_bits = max(group_bits, min_bits)
    candidates = terminal_pool(word_bits, n)
    max_count = min(6, max(1, math.ceil(group_bits / min_bits)))
    for under, over in ACCEPTANCE_WINDOWS:
        group = greedy_prime_product(
            group_bits, candidates, under, max_count, over, excluded=taken
        )
        if group is not None:
            return group
    # Last resort: the smallest primes that fit the word count; the scale
    # overshoots, consuming modulus faster (the paper's 30-bit example).
    k = max(1, math.ceil(group_bits / usable_bits))
    return tuple(smallest_primes(n, k, taken))
