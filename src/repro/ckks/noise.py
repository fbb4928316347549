"""Analytic noise estimation for CKKS ciphertexts.

Tracks an upper estimate of the noise standard deviation (in bits)
alongside the operations a program performs, using the standard canonical-
embedding heuristics (Cheon et al., Kim et al.).  This is the planning
companion to the exact measurements of the precision experiments: it lets
users ask "how many error-free bits should I expect?" before running
anything, and it documents where each operation's error comes from.

Every rule is one quadrature join (:func:`join_bits`,
``max + 0.5*log2(1 + 4^(min - max))``) of the incoming error against a
per-level term: the fresh-encryption error, the rounding floor of one
rescale, or the keyswitch error.  :class:`NoiseModel` builds those three
per-level tables once (``fresh_bits``, ``floor_bits``,
``keyswitch_bits``); its methods read them, and so does the static
verifier (:mod:`repro.analysis.absint`), which calls the same join on
scalars instead of building a :class:`NoiseEstimate` per op.

The estimates are deliberately simple (heuristic constants, no
ring-expansion factors beyond ``sqrt(n)``); the tests check that they
upper-bound the empirically measured noise of the functional engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.rns.sampling import DEFAULT_SIGMA

if TYPE_CHECKING:  # pragma: no cover
    from repro.schemes.chain import ModulusChain


@dataclass(frozen=True)
class _LevelScaleView:
    """Duck-typed stand-in for one :class:`~repro.schemes.chain.Level`."""

    log2_scale: float


@dataclass(frozen=True)
class _TraceChainView:
    """The slice of the chain interface :class:`NoiseModel` reads.

    Lets the static verifier (:mod:`repro.analysis.absint`) run the
    noise rules from a trace's scale targets alone, before any scheme
    has planned concrete primes.
    """

    n: int
    levels: tuple[_LevelScaleView, ...]

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class NoiseEstimate:
    """Noise tracked in the *value domain*: error std relative to 1.0.

    ``log2_error`` is the (log2) standard deviation of the decoded slot
    error; error-free mantissa bits ~ ``-log2_error`` minus a small
    tail factor.
    """

    log2_error: float
    level: int

    @property
    def expected_precision_bits(self) -> float:
        """Error-free mantissa bits, with a ~3-sigma tail allowance."""
        return precision_bits(self.log2_error)


def precision_bits(log2_error: float) -> float:
    """Error-free mantissa bits of a value-domain error of std
    ``2^log2_error``, with a ~3-sigma tail allowance."""
    return -log2_error - 2.0


def join_bits(a: float, b: float) -> float:
    """Two independent errors (log2 std) added in quadrature: the larger
    plus ``0.5*log2(1 + 4^(smaller - larger))``."""
    if a < b:
        a, b = b, a
    return a + 0.5 * math.log2(1.0 + 4.0 ** (b - a))


class NoiseModel:
    """Per-operation noise rules over one modulus chain."""

    def __init__(self, chain: "ModulusChain", sigma: float = DEFAULT_SIGMA):
        self.chain = chain
        self.sigma = sigma
        sqrt_n_bits = 0.5 * math.log2(chain.n)
        scales = [level.log2_scale for level in chain.levels]
        # Public-key encryption error is ``e0 + u*e + s*e1``: the ternary
        # convolutions give std ~ sigma * sqrt(4n/3), and taking the max
        # over n coefficients (what error-free *bits* measure) adds
        # another ~sqrt(2 ln n) factor -- together ~3 bits beyond
        # sigma * sqrt(n).
        coeff_error_bits = math.log2(sigma) + sqrt_n_bits + 3.0
        #: Per level: log2 error of a fresh encryption at that scale.
        self.fresh_bits = tuple(coeff_error_bits - s for s in scales)
        #: Per level: one rounded division by the scale leaves
        #: ~sqrt(n/12) coefficient units over the scale.
        self.floor_bits = tuple(sqrt_n_bits - 1.5 - s + 2.0 for s in scales)
        #: Per level: hybrid keyswitch noise after the mod-down by P,
        #: roughly a few rounding units (the rescale floor's order).
        self.keyswitch_bits = tuple(f + 1.0 for f in self.floor_bits)

    @classmethod
    def from_level_scales(
        cls,
        n: int,
        level_scale_bits: Sequence[float],
        sigma: float = DEFAULT_SIGMA,
    ) -> "NoiseModel":
        """A model over per-level scale targets, with no planned chain.

        The noise rules only read ``chain.n`` and each level's
        ``log2_scale``, so a trace's ``level_scale_bits`` (level 0
        first) is enough to estimate a schedule's noise statically.
        """
        view = _TraceChainView(
            n=n,
            levels=tuple(
                _LevelScaleView(float(bits)) for bits in level_scale_bits
            ),
        )
        return cls(view, sigma)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def fresh(self, level: int | None = None) -> NoiseEstimate:
        """Noise of a freshly encrypted ciphertext."""
        if level is None:
            level = self.chain.max_level
        return NoiseEstimate(log2_error=self.fresh_bits[level], level=level)

    def after_add(self, a: NoiseEstimate, b: NoiseEstimate) -> NoiseEstimate:
        """Independent errors add in quadrature."""
        return NoiseEstimate(join_bits(a.log2_error, b.log2_error), a.level)

    def after_multiply(
        self, a: NoiseEstimate, b: NoiseEstimate, magnitude_bits: float = 0.0
    ) -> NoiseEstimate:
        """Multiplying values of size ~2^magnitude scales each operand's
        error by the other operand (paper Sec. 2.2: noise ~ S * delta),
        plus a small keyswitch term."""
        grown = max(
            a.log2_error + magnitude_bits, b.log2_error + magnitude_bits
        )
        return NoiseEstimate(
            join_bits(grown, self.keyswitch_bits[a.level]), a.level
        )

    def after_rescale(self, est: NoiseEstimate) -> NoiseEstimate:
        """Rescale divides noise and scale together; in the value domain
        the error is unchanged except for the rounding floor."""
        level = est.level - 1
        return NoiseEstimate(
            join_bits(est.log2_error, self.floor_bits[level]), level
        )

    def after_adjust(self, est: NoiseEstimate, dst_level: int) -> NoiseEstimate:
        """Adjust = constant multiply + rescale: same floor as rescale
        (the paper's Fig. 19 finding)."""
        return NoiseEstimate(
            join_bits(est.log2_error, self.floor_bits[dst_level]), dst_level
        )

    def after_rotate(self, est: NoiseEstimate) -> NoiseEstimate:
        return NoiseEstimate(
            join_bits(est.log2_error, self.keyswitch_bits[est.level]),
            est.level,
        )
