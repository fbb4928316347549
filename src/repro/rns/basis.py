"""RNS basis: an ordered tuple of pairwise-coprime NTT-friendly primes.

A basis has exactly one width kind, set by its widest modulus
(:func:`repro.nt.modmath.backend_kind`): ``narrow`` if every modulus is
below 2^31, else ``wide`` if every one is below 2^61, else ``big``.  The
kind fixes the dtype of every residue matrix over the basis and the
arithmetic every row of it runs on — a narrow prime beside 36-bit words
rides the wide kernels, which are exact for it too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.nt.modmath import (
    backend_kind,
    dtype_for_modulus,
    mod_inv,
    shoup_companion,
)


class ScalarColumn(NamedTuple):
    """Per-row constants ready to multiply a residue matrix by.

    ``col`` is the reduced ``(R, 1)`` column in the basis dtype; ``shoup``
    its Shoup companion on a ``wide`` basis (``None`` elsewhere), so a
    constant that is reused pays for the companion once.
    """

    col: np.ndarray
    shoup: np.ndarray | None


class RnsBasis:
    """An ordered RNS basis over polynomial degree ``n``.

    The order matters: residue row ``i`` of every polynomial over this
    basis is taken modulo ``moduli[i]``.  Bases are immutable and
    hashable, so precomputations (CRT weights, basis-conversion tables)
    can be cached per basis pair.
    """

    __slots__ = ("n", "moduli", "kind", "dtype", "_product", "_q_col")

    def __init__(self, n: int, moduli: Sequence[int]):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ParameterError("an RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ParameterError(f"RNS moduli must be distinct, got {moduli}")
        self.n = n
        self.moduli = moduli
        widest = max(moduli)
        #: ``"narrow"``/``"wide"``/``"big"`` — the widest modulus decides.
        self.kind = backend_kind(widest)
        #: Residue-matrix dtype: uint64, or object for a ``big`` basis.
        self.dtype = dtype_for_modulus(widest)
        self._product: int | None = None
        self._q_col: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of residues ``R``."""
        return len(self.moduli)

    @property
    def product(self) -> int:
        """The composite modulus ``Q = Π q_i``."""
        if self._product is None:
            self._product = prod(self.moduli)
        return self._product

    @property
    def log2_product(self) -> float:
        """``log2 Q``, the coefficient width the basis represents."""
        return float(self.product.bit_length() - 1) + _fractional_bits(self.product)

    @property
    def q_col(self) -> np.ndarray:
        """The ``(R, 1)`` modulus column every matrix op broadcasts against."""
        if self._q_col is None:
            self._q_col = self.column(self.moduli)
        return self._q_col

    def column(self, values: Sequence[int]) -> np.ndarray:
        """Per-row constants as an ``(R, 1)`` column in the basis dtype."""
        return np.array(values, dtype=self.dtype).reshape(-1, 1)

    def scalar_column(self, scalars: Sequence[int]) -> ScalarColumn:
        """Integer constants (any size or sign), one per row, reduced
        into a :class:`ScalarColumn` for ``rowwise_scalar_mul``."""
        if len(scalars) != self.size:
            raise ParameterError(f"expected {self.size} scalars, got {len(scalars)}")
        col = self.column([s % q for s, q in zip(scalars, self.moduli)])
        shoup = shoup_companion(col, self.q_col) if self.kind == "wide" else None
        return ScalarColumn(col, shoup)

    def backend_groups(
        self,
    ) -> tuple[tuple[str, tuple[int, ...], np.ndarray], ...]:
        """``((kind, row indices, q_col),)`` — the basis as one group.

        Every row shares the basis kind, so there is exactly one entry;
        kept in this shape for callers that size a kernel dispatch from
        it (``benchmarks/ladder/rungs.py``).
        """
        return ((self.kind, tuple(range(self.size)), self.q_col),)

    def index_of(self, q: int) -> int:
        """Row index of modulus ``q`` (raises if absent)."""
        try:
            return self.moduli.index(q)
        except ValueError:
            raise ParameterError(f"{q} is not in this basis") from None

    def contains(self, q: int) -> bool:
        return q in self.moduli

    def extended(self, extra: Iterable[int]) -> "RnsBasis":
        """A new basis with ``extra`` moduli appended (order preserved)."""
        return RnsBasis(self.n, self.moduli + tuple(extra))

    def without(self, shed: Iterable[int]) -> "RnsBasis":
        """A new basis with the ``shed`` moduli removed."""
        shed_set = set(shed)
        missing = shed_set - set(self.moduli)
        if missing:
            raise ParameterError(f"cannot shed moduli not in basis: {sorted(missing)}")
        return RnsBasis(self.n, [q for q in self.moduli if q not in shed_set])

    def subset(self, indices: Sequence[int]) -> "RnsBasis":
        """A new basis keeping only the rows at ``indices`` (in that order)."""
        return RnsBasis(self.n, [self.moduli[i] for i in indices])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RnsBasis)
            and self.n == other.n
            and self.moduli == other.moduli
        )

    def __hash__(self) -> int:
        return hash((self.n, self.moduli))

    def __repr__(self) -> str:
        bits = [q.bit_length() for q in self.moduli]
        return f"RnsBasis(n={self.n}, R={self.size}, bits={bits})"


def _fractional_bits(value: int) -> float:
    """Fractional part of ``log2(value)`` computed without overflow."""
    import math

    top = value >> max(0, value.bit_length() - 64)
    return math.log2(top) - (top.bit_length() - 1)


@lru_cache(maxsize=4096)
def crt_weights(basis: RnsBasis) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-modulus CRT decomposition constants for ``basis``.

    Returns ``(q_hat_inv, q_hat)`` where ``q_hat[i] = Q / q_i`` (a big int)
    and ``q_hat_inv[i] = (Q / q_i)^{-1} mod q_i``.  These are the constants
    behind both exact CRT reconstruction and fast base conversion.
    """
    big_q = basis.product
    q_hat = tuple(big_q // q for q in basis.moduli)
    q_hat_inv = tuple(mod_inv(h, q) for h, q in zip(q_hat, basis.moduli))
    return q_hat_inv, q_hat


class ConversionTable:
    """Every constant of one ``src`` → ``dst`` fast base conversion.

    ``digit`` multiplies the source rows into CRT digits
    ``v_i = x_i · (Q/q_i)^{-1} mod q_i``; ``q_inv`` is the float64
    ``1/q_i`` vector behind the overflow count ``α``; ``weights`` is the
    ``(m, k + 1)`` fold matrix in the destination dtype, row ``j``
    holding ``(Q/q_i) mod p_j`` and, last, ``-Q mod p_j`` for the ``α``
    row (an approximate conversion folds with the first ``k`` columns).
    """

    def __init__(self, src: RnsBasis, dst_moduli: tuple[int, ...]):
        q_hat_inv, q_hat = crt_weights(src)
        self.src = src
        self.dst = RnsBasis(src.n, dst_moduli)
        self.digit = src.scalar_column(q_hat_inv)
        self.q_inv = np.array([1.0 / float(q) for q in src.moduli])
        self.weights = np.array(
            [[h % p for h in q_hat] + [(-src.product) % p] for p in self.dst.moduli],
            dtype=self.dst.dtype,
        )

    @cached_property
    def inv_product(self) -> ScalarColumn:
        """``Q^{-1} mod p_j`` per destination row — the exact division
        that finishes ``scale_down`` (``dst`` must be coprime to ``Q``)."""
        big_q = self.src.product
        return self.dst.scalar_column(
            [mod_inv(big_q % p, p) for p in self.dst.moduli]
        )


@lru_cache(maxsize=4096)
def restriction(
    basis: RnsBasis, moduli: tuple[int, ...]
) -> tuple[RnsBasis, np.ndarray]:
    """The sub-basis over ``moduli`` (in that order) and the rows of
    ``basis`` it keeps, as a read-only index array.

    Level management restricts the same few ``(basis, moduli)`` pairs
    on every rescale, adjust and mod-down, so they are built once.
    """
    rows = np.array([basis.index_of(q) for q in moduli], dtype=np.intp)
    rows.setflags(write=False)
    return RnsBasis(basis.n, moduli), rows


@lru_cache(maxsize=4096)
def extension(
    basis: RnsBasis, moduli: tuple[int, ...]
) -> tuple[RnsBasis, ScalarColumn]:
    """``basis`` grown by ``moduli`` and the column multiplying each of
    its rows by their product — :func:`restriction`'s twin for
    ``scale_up``, built once per ``(basis, moduli)`` like it."""
    return basis.extended(moduli), basis.scalar_column([prod(moduli)] * basis.size)


@lru_cache(maxsize=1024)
def conversion_table(src: RnsBasis, dst_moduli: tuple[int, ...]) -> ConversionTable:
    """The cached :class:`ConversionTable` for ``src`` → ``dst_moduli``.

    Bounded: a table is ``(m, k + 1)`` words, and a chain has a few
    basis pairs per level (one per keyswitch digit, one per mod-down,
    one per rescale).
    """
    return ConversionTable(src, dst_moduli)
