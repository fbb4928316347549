"""Chinese Remainder Theorem reconstruction and centered representatives.

The exact big-integer routines are the test oracle for every RNS
operation: an :class:`~repro.rns.poly.RnsPolynomial` is correct iff CRT
reconstruction of its residues matches the big-integer computation.  On
the decode path they are the oracle and the fallback, no longer the
path: :func:`centered_int64` recovers a whole coefficient vector as
int64 in a few numpy passes, and checks its own answer against every
residue row.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.nt.modmath import (
    backend_kind,
    mod_inv,
    mod_mul_shoup,
    mod_reduce,
    shoup_limbs,
)


def crt_reconstruct(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """The unique ``x in [0, Q)`` with ``x ≡ r_i (mod q_i)``, ``Q = Π q_i``."""
    if len(residues) != len(moduli):
        raise ParameterError("residues and moduli length mismatch")
    big_q = prod(moduli)
    x = 0
    for r, q in zip(residues, moduli):
        q_hat = big_q // q
        x += int(r) * q_hat * mod_inv(q_hat, q)
    return x % big_q


def crt_reconstruct_vector(
    residue_rows: Sequence[np.ndarray], moduli: Sequence[int]
) -> list[int]:
    """CRT-reconstruct a full polynomial: row ``i`` holds coeffs mod ``q_i``."""
    if len(residue_rows) != len(moduli):
        raise ParameterError("residue rows and moduli length mismatch")
    big_q = prod(moduli)
    n = len(residue_rows[0])
    # Precompute per-modulus CRT weights once for the whole vector.
    weights = []
    for q in moduli:
        q_hat = big_q // q
        weights.append(q_hat * mod_inv(q_hat, q))
    out = [0] * n
    for row, w in zip(residue_rows, weights):
        for j in range(n):
            out[j] += int(row[j]) * w
    return [v % big_q for v in out]


def centered(x: int, q: int) -> int:
    """Symmetric representative of ``x mod q`` in ``(-q/2, q/2]``."""
    x %= q
    return x - q if x > q // 2 else x


def centered_vector(values: Sequence[int], q: int) -> list[int]:
    """Centered representatives for a full coefficient vector."""
    half = q // 2
    return [v - q if v > half else v for v in (int(v) % q for v in values)]


class _Int64Table:
    """The constants of a fast base conversion from ``moduli`` to 2^64."""

    def __init__(self, moduli: tuple[int, ...]):
        big_q = prod(moduli)
        q_hat = [big_q // q for q in moduli]
        self.product = big_q
        self.q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        self.q_signed = self.q_col.astype(np.int64)
        #: ``(Q/q_i)^-1 mod q_i``, and its Shoup limbs on a wide basis.
        self.digit = np.array(
            [mod_inv(h, q) for h, q in zip(q_hat, moduli)], dtype=np.uint64
        ).reshape(-1, 1)
        wide = backend_kind(max(moduli)) == "wide"
        self.limbs = shoup_limbs(self.digit, self.q_col) if wide else None
        self.q_inv = np.array([1.0 / q for q in moduli])
        #: ``Q/q_i mod 2^64`` and ``Q mod 2^64``: the fold weights.
        self.q_hat = np.array(
            [h % (1 << 64) for h in q_hat], dtype=np.uint64
        ).reshape(-1, 1)
        self.q_mod = np.uint64(big_q % (1 << 64))


@lru_cache(maxsize=256)
def _int64_table(moduli: tuple[int, ...]) -> _Int64Table | None:
    """The cached table, or ``None`` for ``2^63 ≤ Q < 2^64``: too wide
    to center in int64 directly, too narrow for the range check."""
    if (1 << 63) <= prod(moduli) < (1 << 64):
        return None
    return _Int64Table(moduli)


def centered_int64(mat: np.ndarray, moduli: Sequence[int]) -> np.ndarray | None:
    """The centered coefficients ``x ∈ (-Q/2, Q/2]`` of a ``(k, n)``
    uint64 residue matrix as an int64 vector, or ``None`` when they do
    not all fit one — the caller then takes :func:`crt_reconstruct_vector`.

    A fast base conversion to the modulus 2^64: the CRT digits
    ``v_i = r_i · (Q/q_i)^-1 mod q_i``, the overflow count
    ``α = rint(Σ v_i / q_i)`` in float64 (the count
    :func:`repro.rns.convert.base_convert` takes the same way), and
    ``x = Σ v_i · (Q/q_i mod 2^64) − α · (Q mod 2^64)``, wrapping, read
    as int64.  ``Q < 2^63`` is reduced mod ``Q`` and centered directly.
    The answer is accepted only if ``x mod q_i = r_i`` on every row: the
    int64 range holds one representative of each class mod ``Q`` when
    ``Q > 2^64``, and the centered one, so a misjudged ``α`` or a
    coefficient at or beyond 2^63 (an un-rescaled product at scale²)
    fails the check instead of decoding wrong.  ``2^63 ≤ Q < 2^64``
    returns ``None``.
    """
    t = _int64_table(tuple(moduli))
    if t is None:
        return None
    if t.limbs is None:
        # Narrow rows: residue times digit constant < 2^62.
        products = mat * t.digit  # fhelint: ok[overflow-hazard] < 2^62
        digits = mod_reduce(products, t.q_col, out=products)
    else:
        digits = mod_mul_shoup(mat, t.digit, t.limbs, t.q_col)
    alpha = np.rint(t.q_inv @ digits.astype(np.float64)).astype(np.uint64)
    # Both products wrap mod 2^64 by design: x is wanted mod 2^64.
    x = (digits * t.q_hat).sum(axis=0, dtype=np.uint64)  # fhelint: ok[overflow-hazard]
    x -= alpha * t.q_mod  # fhelint: ok[overflow-hazard] mod 2^64
    y = x.view(np.int64)
    if t.product < 1 << 63:
        big_q = np.int64(t.product)
        y %= big_q
        y[y > big_q // 2] -= big_q
    if not np.array_equal((y % t.q_signed).view(np.uint64), mat):
        return None
    return y
