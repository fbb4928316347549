"""BitPacker: packed fixed-width residues, decoupled from scales (Sec. 3).

A BitPacker level consists of *non-terminal* residues — the largest
NTT-friendly primes below the hardware word — plus one or two *terminal*
residues chosen by a greedy DFS (paper Listing 7) so the level's total
modulus lands within 0.5 bits of its target.  Rescale (Listing 4) and
adjust (Listing 6) move between levels by a ``scaleUp`` to introduce the
destination's terminal moduli followed by a multi-modulus ``scaleDown``
that sheds the source's, temporarily growing the ciphertext as in Fig. 6.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import prod
from typing import Collection, Iterable, Sequence

from repro.ckks.ciphertext import Ciphertext
from repro.errors import LevelExhaustedError, ParameterError, PlanningError
from repro.rns.convert import drop_moduli, scale_down, scale_up
from repro.rns.poly import COEFF, to_domain
from repro.schemes.chain import (
    LevelSpec,
    ModulusChain,
    canonicalize_scale,
    replace_ciphertext,
)
from repro.schemes.rns_ckks import _log2_fraction, _normalize_targets, _pow2_scale
from repro.schemes.selection import (
    ACCEPTANCE_WINDOWS,
    PrimePool,
    choose_special_moduli,
    greedy_prime_product,
    largest_primes_below_word,
    limit_fraction,
    log2_int,
    min_prime_bits,
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


class BitPackerChain(ModulusChain):
    """A planned BitPacker chain (word-packed residues per level)."""

    @property
    def scheme(self) -> str:
        return "bitpacker"

    # ------------------------------------------------------------------
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Paper Listing 4 (``bpRescale``): scale up, then scale down."""
        self._check_on_chain(ct)
        if ct.level == 0:
            raise LevelExhaustedError("cannot rescale below level 0")
        cur = self.moduli_at(ct.level)
        dst = self.moduli_at(ct.level - 1)
        added = tuple(q for q in dst if q not in cur)
        shed = tuple(q for q in cur if q not in dst)
        c0, c1 = to_domain((ct.c0, ct.c1), COEFF)
        if added:
            c0 = scale_up(c0, added)
            c1 = scale_up(c1, added)
        c0 = scale_down(c0, shed).restricted(dst)
        c1 = scale_down(c1, shed).restricted(dst)
        scale = canonicalize_scale(
            ct.scale * prod(added) / prod(shed),
            self.scale_at(ct.level - 1),
        )
        return replace_ciphertext(ct, c0, c1, ct.level - 1, scale)

    def adjust(self, ct: Ciphertext, dst_level: int) -> Ciphertext:
        """Paper Listing 6 (``bpAdjust``), generalized across levels.

        First drops residues while the modulus stays above level
        ``dst+1``'s (value- and scale-preserving), then applies the
        scale-correcting constant and a Listing-4-style move into the
        destination basis.
        """
        self._check_on_chain(ct)
        if dst_level > ct.level:
            raise ParameterError(
                f"adjust target {dst_level} above current level {ct.level}"
            )
        if dst_level == ct.level:
            return ct
        dst_moduli = self.moduli_at(dst_level)
        cur = list(ct.moduli)
        c0, c1 = ct.c0, ct.c1
        # Step 1: cheap residue drops down to ~ level dst+1's modulus.
        q_floor = self.q_product_at(dst_level + 1)
        cur_prod = prod(cur)
        drops: list[int] = []
        while cur and cur[-1] not in dst_moduli and cur_prod // cur[-1] >= q_floor:
            drops.append(cur.pop())
            cur_prod //= drops[-1]
        if drops:
            c0 = drop_moduli(c0, drops)
            c1 = drop_moduli(c1, drops)
        # Step 2: scale-correct, scale up into dst's moduli, shed the rest.
        added = tuple(q for q in dst_moduli if q not in cur)
        shed = tuple(q for q in cur if q not in dst_moduli)
        target_scale = self.scale_at(dst_level)
        k = round(target_scale * prod(shed) / (ct.scale * prod(added)))
        if k < 1:
            raise PlanningError(
                f"adjust constant rounded to zero moving level {ct.level} -> "
                f"{dst_level}; scale {float(ct.scale):.3g} incompatible"
            )
        c0, c1 = (c.scalar_mul(k) for c in to_domain((c0, c1), COEFF))
        if added:
            c0 = scale_up(c0, added)
            c1 = scale_up(c1, added)
        c0 = scale_down(c0, shed).restricted(dst_moduli)
        c1 = scale_down(c1, shed).restricted(dst_moduli)
        scale = canonicalize_scale(
            ct.scale * k * prod(added) / prod(shed), self.scale_at(dst_level)
        )
        return replace_ciphertext(ct, c0, c1, dst_level, scale)


def plan_bitpacker_chain(
    n: int,
    word_bits: int,
    level_scale_bits: Sequence[float] | float,
    levels: int | None = None,
    base_bits: float = 60.0,
    ks_digits: int = 3,
    max_log_q: float | None = None,
    tolerance_bits: float = DEFAULT_TOLERANCE_BITS,
) -> BitPackerChain:
    """Plan a BitPacker chain (paper Sec. 3.3 / Fig. 8).

    Arguments mirror :func:`~repro.schemes.rns_ckks.plan_rns_ckks_chain`
    so the two schemes can be driven by identical program constraints.
    """
    targets = _normalize_targets(level_scale_bits, levels)
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
    scales: dict[int, Fraction] = {max_level: _pow2_scale(targets[max_level])}
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
            drift = abs(_log2_fraction(scales[level]) - targets[level])
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
                - 2 * _log2_fraction(scales[level])
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
    return BitPackerChain(
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
