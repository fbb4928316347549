"""Modulus chains: the level -> (moduli, scale) map of Fig. 8, and the
one level-management routine both schemes run.

A :class:`ModulusChain` is what a planner emits: per-level residue
moduli, per-level canonical scales, special keyswitch moduli.  BitPacker
changes *only* how those moduli are chosen (paper Sec. 3.1); moving a
ciphertext between two levels is the same routine for any chain, driven
by the chain's :class:`LevelMove` table.  The paper's listings are its
cases: Listing 4 (``bpRescale``) with no terminal moduli to add *is*
Listing 1, and Listing 6 (``bpAdjust``) with none to add *is* Listing 2.
Everything above (the evaluator) and below (the cost models) consumes
chains without knowing which planner produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import log2, prod
from typing import NamedTuple, Sequence

from repro.ckks.ciphertext import Ciphertext
from repro.errors import (
    LevelExhaustedError,
    ParameterError,
    PlanningError,
    ScaleMismatchError,
)
from repro.rns.basis import RnsBasis
from repro.rns.convert import drop_moduli, scale_down_all, scale_up
from repro.rns.poly import COEFF, to_domain
from repro.schemes.selection import limit_fraction

SCHEMES = ("bitpacker", "rns-ckks")


@dataclass(frozen=True)
class LevelSpec:
    """One level of a chain: its RNS moduli and canonical working scale."""

    moduli: tuple[int, ...]
    scale: Fraction

    @property
    def residues(self) -> int:
        return len(self.moduli)

    @property
    def log2_q(self) -> float:
        return log2(prod(self.moduli))

    @property
    def log2_scale(self) -> float:
        return log2(self.scale.numerator) - log2(self.scale.denominator)


class LevelMove(NamedTuple):
    """How a ciphertext gets from level ``src`` down to level ``dst``.

    Set differences of the two levels' moduli, taken once per level pair
    (:meth:`ModulusChain.move`).  With ``added`` empty this is RNS-CKKS's
    Listing 1/2; BitPacker's terminal moduli are what fills it.
    """

    #: Trailing residues discarded first, for free: leaving them keeps
    #: the modulus at or above level ``dst + 1``'s, so neither value nor
    #: scale changes (Kim et al.'s multi-level adjust).
    drops: tuple[int, ...]
    #: ``dst``'s moduli missing from what remains: Listing 3 ``scaleUp``.
    added: tuple[int, ...]
    #: What remains that ``dst`` lacks: one Listing 5 ``scaleDown``.
    shed: tuple[int, ...]
    #: The destination level.
    dst: int
    #: ``prod(added) / prod(shed)``: what the move multiplies the scale by.
    factor: Fraction


class ModulusChain:
    """Level-to-modulus map plus level management (either scheme)."""

    def __init__(
        self,
        scheme: str,
        n: int,
        word_bits: int,
        levels: Sequence[LevelSpec],
        special_moduli: Sequence[int],
        ks_digits: int,
    ):
        if scheme not in SCHEMES:
            raise ParameterError(f"unknown chain scheme {scheme!r}")
        if not levels:
            raise ParameterError("a chain needs at least one level")
        #: The planner that built the chain: ``"rns-ckks"`` or
        #: ``"bitpacker"``.  A label for reports, never a switch.
        self.scheme = scheme
        self.n = n
        self.word_bits = word_bits
        self.levels = tuple(levels)
        self.special_moduli = tuple(special_moduli)
        self.ks_digits = ks_digits
        self._bases: dict[int, RnsBasis] = {}
        self._moves: dict[tuple[int, int], LevelMove] = {}

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def _spec(self, level: int) -> LevelSpec:
        if not 0 <= level <= self.max_level:
            raise LevelExhaustedError(
                f"level {level} outside chain range [0, {self.max_level}]"
            )
        return self.levels[level]

    def moduli_at(self, level: int) -> tuple[int, ...]:
        return self._spec(level).moduli

    def scale_at(self, level: int) -> Fraction:
        return self._spec(level).scale

    def residues_at(self, level: int) -> int:
        return self._spec(level).residues

    def q_product_at(self, level: int) -> int:
        return prod(self._spec(level).moduli)

    def log2_q_at(self, level: int) -> float:
        return self._spec(level).log2_q

    def basis_at(self, level: int) -> RnsBasis:
        basis = self._bases.get(level)
        if basis is None:
            basis = RnsBasis(self.n, self.moduli_at(level))
            self._bases[level] = basis
        return basis

    @property
    def all_moduli(self) -> tuple[int, ...]:
        """Union of every modulus used anywhere in the chain (no specials)."""
        seen: dict[int, None] = {}
        for spec in self.levels:
            for q in spec.moduli:
                seen.setdefault(q)
        return tuple(seen)

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Per level, its moduli absent one level down (level 0: all of
        them).  On an RNS-CKKS chain ``groups[L]`` is the residue group a
        rescale from level ``L`` sheds."""
        moduli = [spec.moduli for spec in self.levels]
        return tuple(
            tuple(q for q in here if q not in below)
            for below, here in zip([()] + moduli, moduli)
        )

    def _check_on_chain(self, ct: Ciphertext) -> None:
        expected = self.moduli_at(ct.level)
        if ct.moduli != expected:
            raise ScaleMismatchError(
                f"ciphertext basis does not match chain level {ct.level}: "
                f"{[q.bit_length() for q in ct.moduli]} vs "
                f"{[q.bit_length() for q in expected]}"
            )

    # ------------------------------------------------------------------
    # Level management
    # ------------------------------------------------------------------
    def move(self, src: int, dst: int) -> LevelMove:
        """The :class:`LevelMove` from level ``src`` down to ``dst``
        (empty when they are equal, as a recorded no-op adjust has
        them), computed once per pair and kept on the chain."""
        known = self._moves.get((src, dst))
        if known is None:
            if not 0 <= dst <= src:
                raise ParameterError(f"no level move from {src} up to {dst}")
            cur = list(self.moduli_at(src))
            target = self.moduli_at(dst)
            drops: list[int] = []
            # A one-level move drops nothing: any residue gone would
            # leave the modulus below level src's own.
            if src > dst + 1:
                floor = self.q_product_at(dst + 1)
                left = prod(cur)
                while cur and cur[-1] not in target and left // cur[-1] >= floor:
                    drops.append(cur.pop())
                    left //= drops[-1]
            added = tuple(q for q in target if q not in cur)
            shed = tuple(q for q in cur if q not in target)
            known = self._moves[src, dst] = LevelMove(
                tuple(drops), added, shed, dst, Fraction(prod(added), prod(shed))
            )
        return known

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Move ``ct`` one level down, dividing scale and noise (paper
        Listing 4; Listing 1 when the level below adds no modulus)."""
        self._check_on_chain(ct)
        if ct.level == 0:
            raise LevelExhaustedError("cannot rescale below level 0")
        return self._apply(ct, self.move(ct.level, ct.level - 1), 1)

    def adjust(self, ct: Ciphertext, dst_level: int) -> Ciphertext:
        """Move ``ct`` to ``dst_level`` with that level's canonical scale.

        This is Kim et al.'s reduced-error adjust (paper Listing 6, or 2
        with nothing to add), generalized across levels: the output
        scale equals the scale a rescaled product would have at
        ``dst_level``, so any two ciphertexts at a level can be added.
        """
        self._check_on_chain(ct)
        if dst_level > ct.level:
            raise ParameterError(
                f"adjust target {dst_level} above current level {ct.level}"
            )
        if dst_level == ct.level:
            return ct
        move = self.move(ct.level, dst_level)
        k = round(self.scale_at(dst_level) / (ct.scale * move.factor))
        if k < 1:
            raise PlanningError(
                f"adjust constant rounded to zero moving level {ct.level} -> "
                f"{dst_level}; scale {float(ct.scale):.3g} incompatible"
            )
        return self._apply(ct, move, k)

    def _apply(self, ct: Ciphertext, move: LevelMove, k: int) -> Ciphertext:
        """Carry ``ct`` along ``move``, multiplied by the constant ``k``
        on the way (1 for a rescale)."""
        polys = [ct.c0, ct.c1]
        if move.drops:
            polys = [drop_moduli(c, move.drops) for c in polys]
        if k != 1 or move.added:
            # The constant and the grown rows are cheaper before the
            # transform; a move that only sheds leaves the inverse to
            # scale_down_all, whose constants ride it.
            polys = to_domain(polys, COEFF)
            if k != 1:
                polys = [c.scalar_mul(k) for c in polys]
            if move.added:
                polys = [scale_up(c, move.added) for c in polys]
        polys = scale_down_all(polys, move.shed)
        # scale_up appends and scale_down keeps source order, so a kept
        # terminal can land ahead of an added one; a nested chain never
        # needs the reorder and BitPacker rarely does.
        target = self.moduli_at(move.dst)
        if polys[0].basis.moduli != target:
            polys = [c.restricted(target) for c in polys]
        scale = canonicalize_scale(
            ct.scale * k * move.factor, self.scale_at(move.dst)
        )
        return replace(ct, c0=polys[0], c1=polys[1], level=move.dst, scale=scale)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable chain summary (bit widths per level)."""
        lines = [
            f"{self.scheme} chain: n={self.n}, word={self.word_bits}b, "
            f"levels={self.max_level + 1}, ks_digits={self.ks_digits}, "
            f"specials={[q.bit_length() for q in self.special_moduli]}"
        ]
        for level in range(self.max_level, -1, -1):
            spec = self.levels[level]
            lines.append(
                f"  L{level:>3}: R={spec.residues:>2} "
                f"log2Q={spec.log2_q:7.1f} log2S={spec.log2_scale:6.2f} "
                f"bits={[q.bit_length() for q in spec.moduli]}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, word={self.word_bits}, "
            f"levels={self.max_level + 1})"
        )


def chain_to_dict(chain: ModulusChain) -> dict:
    """JSON-ready form of a planned chain.

    Scales are exact ``Fraction`` values whose numerator/denominator can
    run to hundreds of bits, so they serialize as decimal strings rather
    than floats.
    """
    return {
        "scheme": chain.scheme,
        "n": chain.n,
        "word_bits": chain.word_bits,
        "ks_digits": chain.ks_digits,
        "special_moduli": list(chain.special_moduli),
        "levels": [
            {
                "moduli": list(spec.moduli),
                "scale": [str(spec.scale.numerator), str(spec.scale.denominator)],
            }
            for spec in chain.levels
        ],
    }


def canonicalize_scale(scale: Fraction, canonical: Fraction) -> Fraction:
    """Snap a post-level-management scale onto the chain's canonical one.

    The planners clamp canonical scales to 192-bit rationals (see
    :func:`repro.schemes.selection.limit_fraction`); a runtime rescale
    recomputes the unclamped value, which differs by < 2^-190.  Snapping
    removes that bookkeeping dust and keeps Fractions bounded over long
    programs.  Genuine scale deviations (e.g. adjust's rounded constant,
    ~2^-40 relative) are far above the snap window and are preserved
    exactly, then clamped to 320 bits so repeated operations cannot blow
    up the representation.
    """
    if scale == canonical:
        return canonical
    if abs(scale / canonical - 1) < Fraction(1, 1 << 100):
        return canonical
    return limit_fraction(scale, 320)
