"""Key material: secret, public, and keyswitch keys.

Keyswitch keys use the standard hybrid (digit-decomposed) RNS
construction with ``ks_digits`` digits (the paper evaluates 1-, 2-, and
3-digit keyswitching, Sec. 5).  Because BitPacker chains use *different*
terminal moduli at different levels, keyswitch keys are generated (and
cached) per level.  This mirrors the accelerators the paper targets:
CraterLake's KSHGen unit regenerates keyswitch hints on chip from a seed
precisely so that hint storage does not explode (Sec. 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.rns.basis import ConversionTable, RnsBasis, conversion_table
from repro.rns.poly import NTT, RnsPolynomial
from repro.rns.sampling import (
    DEFAULT_SIGMA,
    sample_gaussian_coeffs,
    sample_ternary_coeffs,
    sample_uniform,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.schemes.chain import ModulusChain


def galois_int_coeffs(coeffs: Sequence[int], g: int, n: int) -> list[int]:
    """Apply ``X -> X^g`` to integer polynomial coefficients."""
    two_n = 2 * n
    out = [0] * n
    for j, c in enumerate(coeffs):
        t = j * g % two_n
        if t < n:
            out[t] = c
        else:
            out[t - n] = -c
    return out


class SecretKey:
    """A ternary secret, stored as integer coefficients.

    The integer form can be lifted onto any RNS basis, which is what lets
    one secret serve every level of a BitPacker chain (whose bases are not
    nested).
    """

    def __init__(self, coeffs: Sequence[int]):
        self.coeffs = list(coeffs)
        self._lifts: dict[RnsBasis, RnsPolynomial] = {}

    @classmethod
    def generate(
        cls, n: int, rng: np.random.Generator, hamming_weight: int | None = None
    ) -> "SecretKey":
        return cls(sample_ternary_coeffs(n, rng, hamming_weight))

    def lift(self, basis: RnsBasis) -> RnsPolynomial:
        """The secret over ``basis``, in NTT form (cached)."""
        cached = self._lifts.get(basis)
        if cached is None:
            cached = RnsPolynomial.from_int_coeffs(basis, self.coeffs).to_ntt()
            self._lifts[basis] = cached
        return cached

    def galois(self, g: int) -> "SecretKey":
        n = len(self.coeffs)
        return SecretKey(galois_int_coeffs(self.coeffs, g, n))


@dataclass(frozen=True)
class PublicKey:
    """``(b, a)`` with ``b = -a·s + e`` over one level's basis (NTT form)."""

    b: RnsPolynomial
    a: RnsPolynomial
    level: int


@dataclass(frozen=True, eq=False)
class KeySwitchKey:
    """Hybrid keyswitch key for one level.

    ``rows[j] = (b_j, a_j)`` over the extended basis ``M ∪ P`` where
    ``b_j = -a_j·s + e_j + P·T_j·target`` and ``T_j`` is the CRT indicator
    of digit ``j``'s moduli within ``Q = Π M``.

    The key also carries what extending digit ``j`` to ``M ∪ P`` reads,
    fixed at keygen so a keyswitch builds none of it: ``own[j]``, the
    rows of ``M ∪ P`` that are the digit's moduli (contiguous, ``M`` is
    a prefix); ``tables[j]``, its conversion to all the other rows; and
    ``converted_rows``, where those land in the ``(D · |M ∪ P|, n)``
    stack of all extended digits, digit by digit.
    """

    level: int
    digit_groups: tuple[tuple[int, ...], ...]
    special_moduli: tuple[int, ...]
    rows: tuple[tuple[RnsPolynomial, RnsPolynomial], ...]
    own: tuple[slice, ...]
    tables: tuple[ConversionTable, ...]
    converted_rows: np.ndarray

    @property
    def digits(self) -> int:
        return len(self.digit_groups)

    @property
    def full(self) -> RnsBasis:
        """The extended basis ``M ∪ P`` the key rows live over."""
        return self.rows[0][0].basis

    @cached_property
    def converted_moduli(self) -> tuple[int, ...]:
        """The moduli of ``converted_rows``, in that order."""
        return tuple(q for table in self.tables for q in table.dst.moduli)


def split_into_digits(
    moduli: Sequence[int], digits: int
) -> tuple[tuple[int, ...], ...]:
    """Partition a level's moduli into ``digits`` contiguous groups.

    Groups are balanced in count; with fewer moduli than digits, empty
    groups are dropped (1 modulus can at most form 1 digit).
    """
    moduli = tuple(moduli)
    digits = max(1, min(digits, len(moduli)))
    splits = np.array_split(np.arange(len(moduli)), digits)
    return tuple(tuple(moduli[i] for i in part) for part in splits if len(part))


class KeyChest:
    """Generates and caches all key material for one (chain, secret) pair.

    Public and keyswitch keys are derived lazily per level, because a
    BitPacker chain has per-level bases.  Relinearization and Galois keys
    are cached by ``(level, galois_element)``.
    """

    def __init__(
        self,
        chain: "ModulusChain",
        rng: np.random.Generator,
        hamming_weight: int | None = None,
        sigma: float = DEFAULT_SIGMA,
    ):
        self.chain = chain
        self.rng = rng
        self.sigma = sigma
        self.secret = SecretKey.generate(chain.n, rng, hamming_weight)
        self._public: dict[int, PublicKey] = {}
        self._ksk: dict[tuple[int, int | None], KeySwitchKey] = {}

    # ------------------------------------------------------------------
    def public_key(self, level: int | None = None) -> PublicKey:
        if level is None:
            level = self.chain.max_level
        key = self._public.get(level)
        if key is None:
            basis = self.chain.basis_at(level)
            s = self.secret.lift(basis)
            a = sample_uniform(basis, self.rng, NTT)
            e = RnsPolynomial.from_int_coeffs(
                basis, sample_gaussian_coeffs(basis.n, self.rng, self.sigma)
            ).to_ntt()
            b = e.sub(a.pointwise_mul(s))
            key = PublicKey(b=b, a=a, level=level)
            self._public[level] = key
        return key

    def relin_key(self, level: int) -> KeySwitchKey:
        """Keyswitch key for ``s² -> s`` at ``level``."""
        cached = self._ksk.get((level, None))
        if cached is None:
            cached = self._make_ksk(level, target_galois=None)
            self._ksk[(level, None)] = cached
        return cached

    def galois_key(self, level: int, g: int) -> KeySwitchKey:
        """Keyswitch key for ``s(X^g) -> s`` at ``level``."""
        cached = self._ksk.get((level, g))
        if cached is None:
            cached = self._make_ksk(level, target_galois=g)
            self._ksk[(level, g)] = cached
        return cached

    # ------------------------------------------------------------------
    def _make_ksk(self, level: int, target_galois: int | None) -> KeySwitchKey:
        chain = self.chain
        moduli = chain.moduli_at(level)
        specials = chain.special_moduli
        if not specials:
            raise ParameterError("chain has no special moduli for keyswitching")
        full = RnsBasis(chain.n, moduli + specials)
        s = self.secret.lift(full)
        if target_galois is None:
            target = s.pointwise_mul(s)
        else:
            target = self.secret.galois(target_galois).lift(full)
        groups = split_into_digits(moduli, chain.ks_digits)
        big_q = prod(moduli)
        p_prod = prod(specials)
        rows, own, tables, converted_rows = [], [], [], []
        for j, group in enumerate(groups):
            start = own[-1].stop if own else 0
            own.append(slice(start, start + len(group)))
            rest = np.delete(np.arange(full.size), own[-1])
            tables.append(
                conversion_table(
                    RnsBasis(chain.n, group), tuple(full.moduli[i] for i in rest)
                )
            )
            converted_rows.append(j * full.size + rest)
            q_j = prod(group)
            q_hat = big_q // q_j
            # CRT indicator of this digit: ≡ 1 mod group, ≡ 0 elsewhere in Q.
            t_j = q_hat * pow(q_hat, -1, q_j) % big_q
            c_j = p_prod * t_j
            a = sample_uniform(full, self.rng, NTT)
            e = RnsPolynomial.from_int_coeffs(
                full, sample_gaussian_coeffs(full.n, self.rng, self.sigma)
            ).to_ntt()
            b = e.add(target.scalar_mul(c_j)).sub(a.pointwise_mul(s))
            rows.append((b, a))
        return KeySwitchKey(
            level=level,
            digit_groups=groups,
            special_moduli=specials,
            rows=tuple(rows),
            own=tuple(own),
            tables=tuple(tables),
            converted_rows=np.concatenate(converted_rows),
        )
