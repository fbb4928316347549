"""The per-block negacyclic NTT and the schoolbook product: NTT oracles.

:class:`ReferenceNttContext` is the scalar, one-butterfly-block-at-a-time
implementation of the transforms :mod:`repro.nt.ntt` computes with
stage-vectorized butterflies.  The vectorized transforms must produce
the *same residues* on identical inputs, on every modulus width
(``tests/test_nt_ntt_vectorized.py``, ``tests/test_backends.py``).
:func:`schoolbook_negacyclic` is the O(n^2) ground truth a transform
product (forward, pointwise multiply, inverse) is checked against.

It costs O(n) Python-level loop iterations per transform on top of the
O(n log n) arithmetic, so only tests run it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.nt import modmath
from repro.nt.ntt import _bit_reversed_exponents, _psi_row
from repro.nt.primes import is_ntt_friendly


def _psi_tables(q: int, n: int) -> tuple[list[int], list[int], int]:
    """Bit-reversed ``ψ`` power tables and ``n^{-1}`` for ``(q, n)``."""
    row = _psi_row(q, n)
    fwd, inv = _bit_reversed_exponents(n)
    return row[fwd].tolist(), row[inv].tolist(), modmath.mod_inv(n, q)


class ReferenceNttContext:
    """The per-block-loop negacyclic NTT."""

    def __init__(self, q: int, n: int):
        if not is_ntt_friendly(q, n):
            raise ParameterError(f"{q} is not an NTT-friendly prime for degree {n}")
        self.q = q
        self.n = n
        psi_rev, psi_inv_rev, n_inv = _psi_tables(q, n)
        self._psi_rev = psi_rev
        self._psi_inv_rev = psi_inv_rev
        self._n_inv = n_inv

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Transform coefficient form -> evaluation (NTT) form."""
        q = self.q
        a = coeffs.copy()
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            for i in range(m):
                j1 = 2 * i * t
                s = self._psi_rev[m + i]
                u = a[j1 : j1 + t]
                v = modmath.mod_mul(a[j1 + t : j1 + 2 * t], np.uint64(s), q)
                hi = modmath.mod_sub(u, v, q)
                a[j1 : j1 + t] = modmath.mod_add(u, v, q)
                a[j1 + t : j1 + 2 * t] = hi
            m *= 2
        return a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Transform evaluation (NTT) form -> coefficient form."""
        q = self.q
        a = values.copy()
        t = 1
        m = self.n
        while m > 1:
            j1 = 0
            h = m // 2
            for i in range(h):
                s = self._psi_inv_rev[h + i]
                u = a[j1 : j1 + t]
                v = a[j1 + t : j1 + 2 * t]
                hi = modmath.mod_mul(modmath.mod_sub(u, v, q), np.uint64(s), q)
                a[j1 : j1 + t] = modmath.mod_add(u, v, q)
                a[j1 + t : j1 + 2 * t] = hi
                j1 += 2 * t
            t *= 2
            m = h
        return modmath.mod_mul(a, np.uint64(self._n_inv), q)


@lru_cache(maxsize=256)
def reference_ntt_context(q: int, n: int) -> ReferenceNttContext:
    """Cached :class:`ReferenceNttContext` for ``(q, n)``."""
    return ReferenceNttContext(q, n)


def schoolbook_negacyclic(a, b, q: int, n: int) -> list[int]:
    """O(n²) negacyclic product over Python ints — the ground truth."""
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        for j in range(n):
            k = i + j
            p = ai * int(b[j])
            if k < n:
                out[k] = (out[k] + p) % q
            else:
                out[k - n] = (out[k - n] - p) % q
    return out
