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
the destination scale matches rescaled products exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import prod
from typing import Sequence

from repro.ckks.ciphertext import Ciphertext
from repro.errors import LevelExhaustedError, ParameterError, PlanningError
from repro.rns.convert import drop_moduli, scale_down
from repro.rns.poly import COEFF, to_domain
from repro.schemes.chain import (
    LevelSpec,
    ModulusChain,
    canonicalize_scale,
    replace_ciphertext,
)
from repro.schemes.selection import (
    ACCEPTANCE_WINDOWS,
    choose_special_moduli,
    greedy_prime_product,
    limit_fraction,
    log2_int,
    min_prime_bits,
    primes_near_target,
    smallest_primes,
    terminal_pool,
)


class RnsCkksChain(ModulusChain):
    """A planned RNS-CKKS chain (one residue group per level)."""

    def __init__(
        self,
        n: int,
        word_bits: int,
        levels: Sequence[LevelSpec],
        groups: Sequence[tuple[int, ...]],
        special_moduli: Sequence[int],
        ks_digits: int,
    ):
        super().__init__(n, word_bits, levels, special_moduli, ks_digits)
        # groups[L] is shed when rescaling from level L; groups[0] is the
        # base (level-0) modulus group and is never shed.
        self.groups = tuple(tuple(g) for g in groups)

    @property
    def scheme(self) -> str:
        return "rns-ckks"

    # ------------------------------------------------------------------
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        self._check_on_chain(ct)
        if ct.level == 0:
            raise LevelExhaustedError("cannot rescale below level 0")
        shed = self.groups[ct.level]
        c0, c1 = (scale_down(c, shed) for c in to_domain((ct.c0, ct.c1), COEFF))
        scale = canonicalize_scale(
            ct.scale / prod(shed), self.scale_at(ct.level - 1)
        )
        return replace_ciphertext(ct, c0, c1, ct.level - 1, scale)

    def adjust(self, ct: Ciphertext, dst_level: int) -> Ciphertext:
        self._check_on_chain(ct)
        if dst_level > ct.level:
            raise ParameterError(
                f"adjust target {dst_level} above current level {ct.level}"
            )
        if dst_level == ct.level:
            return ct
        c0, c1 = ct.c0, ct.c1
        level = ct.level
        # Step 1 (Kim et al.): discard whole residue groups until one
        # level above the destination.  Discarding changes neither value
        # nor scale.
        sheds: list[int] = []
        while level > dst_level + 1:
            sheds.extend(self.groups[level])
            level -= 1
        if sheds:
            c0 = drop_moduli(c0, sheds)
            c1 = drop_moduli(c1, sheds)
        # Step 2 (Listing 2): scale-correct and rescale one level.
        shed = self.groups[level]
        target_scale = self.scale_at(dst_level)
        k = round(Fraction(prod(shed)) * target_scale / ct.scale)
        if k < 1:
            raise PlanningError(
                "adjust constant rounded to zero; ciphertext scale "
                f"{float(ct.scale):.3g} too large for level {dst_level}"
            )
        c0, c1 = (
            scale_down(c.scalar_mul(k), shed) for c in to_domain((c0, c1), COEFF)
        )
        scale = canonicalize_scale(
            ct.scale * k / prod(shed), self.scale_at(dst_level)
        )
        return replace_ciphertext(ct, c0, c1, dst_level, scale)


def plan_rns_ckks_chain(
    n: int,
    word_bits: int,
    level_scale_bits: Sequence[float] | float,
    levels: int | None = None,
    base_bits: float = 60.0,
    ks_digits: int = 3,
    max_log_q: float | None = None,
    snap_scales: bool = False,
) -> RnsCkksChain:
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
    targets = _normalize_targets(level_scale_bits, levels)
    max_level = len(targets) - 1
    min_bits = min_prime_bits(n)
    usable_bits = _usable_word_bits(n, word_bits)
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
    scales: dict[int, Fraction] = {max_level: _pow2_scale(targets[max_level])}
    groups: dict[int, tuple[int, ...]] = {0: base_group}
    for level in range(max_level, 0, -1):
        s_bits = _log2_fraction(scales[level])
        group_bits = 2 * s_bits - targets[level - 1]
        group = _choose_scale_group(
            group_bits, n, word_bits, usable_bits, min_bits, taken
        )
        taken.update(group)
        groups[level] = group
        scales[level - 1] = limit_fraction(scales[level] ** 2 / prod(group))
        if snap_scales:
            drift = abs(
                _log2_fraction(scales[level - 1]) - targets[level - 1]
            )
            if drift > 1.0:
                scales[level - 1] = _pow2_scale(targets[level - 1])

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
    return RnsCkksChain(
        n=n,
        word_bits=word_bits,
        levels=level_specs,
        groups=[groups[level] for level in range(0, max_level + 1)],
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


def _normalize_targets(
    level_scale_bits: Sequence[float] | float, levels: int | None
) -> list[float]:
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


def _usable_word_bits(n: int, word_bits: int) -> float:
    """log2 of the largest NTT-friendly prime below ``2^word_bits``."""
    from repro.nt.primes import ntt_friendly_primes_below

    p = next(ntt_friendly_primes_below(1 << word_bits, n), None)
    if p is None:
        raise PlanningError(f"no NTT-friendly primes below 2^{word_bits} for n={n}")
    return math.log2(p)


def _pow2_scale(bits: float) -> Fraction:
    return Fraction(round(2.0 ** bits))


def _log2_fraction(value: Fraction) -> float:
    return log2_int(value.numerator) - log2_int(value.denominator)


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
