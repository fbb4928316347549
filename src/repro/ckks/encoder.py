"""CKKS canonical-embedding encoder.

A CKKS plaintext packs ``n/2`` complex (or real fixed-point) slots into an
integer polynomial ``m(X)`` of degree ``n`` (paper Fig. 2).  Slot ``t``
is the evaluation ``m(ζ^{5^t})`` where ``ζ = exp(iπ/n)`` is a primitive
``2n``-th root of unity, and the conjugate orbit ``m(ζ^{-5^t})`` carries
the complex conjugates, which makes real vectors encode to real (integer)
polynomials.

Evaluating at all *odd* powers of ``ζ`` reduces to a single length-``n``
DFT of the twisted coefficients ``m_k ζ^k``, because
``ζ^{2j+1} = ζ · ω^j`` with ``ω = exp(2πi/n)``.  Encoding is the inverse:
scatter the scaled slots (and conjugates) into the spectrum, inverse-DFT,
untwist, and round to integers.

Everything runs in 80-bit ``longdouble`` complex arithmetic so encode and
decode contribute error far below the scheme noise being measured.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.nt.floatext import (
    PI_LONGDOUBLE,
    fraction_to_longdouble,
    ints_to_longdouble,
)


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _unit_roots(count: int, sign: float) -> np.ndarray:
    """``exp(sign * 2πi k / count)`` for ``k < count // 2`` in longdouble."""
    k = np.arange(count // 2, dtype=np.longdouble)
    angle = sign * 2 * PI_LONGDOUBLE * k / np.longdouble(count)
    return np.cos(angle) + 1j * np.sin(angle)


class CkksEncoder:
    """Encode/decode between complex slot vectors and integer polynomials.

    Parameters
    ----------
    n:
        The ring degree ``N`` (a power of two).  The encoder exposes
        ``n // 2`` slots.
    """

    def __init__(self, n: int):
        if n < 4 or n & (n - 1):
            raise ParameterError(f"ring degree must be a power of two >= 4, got {n}")
        self.n = n
        self.slots = n // 2
        self._rev = _bit_reverse_indices(n)
        # Stage twiddles for the in-place radix-2 FFT, both directions.
        self._fwd_roots = {}
        self._inv_roots = {}
        length = 2
        while length <= n:
            self._fwd_roots[length] = _unit_roots(length, +1.0)
            self._inv_roots[length] = _unit_roots(length, -1.0)
            length *= 2
        # Twists m_k * zeta^k mapping the negacyclic embedding to a DFT.
        k = np.arange(n, dtype=np.longdouble)
        angle = PI_LONGDOUBLE * k / np.longdouble(n)
        self._zeta_pow = np.cos(angle) + 1j * np.sin(angle)
        self._zeta_neg_pow = np.conj(self._zeta_pow)
        # Slot spectrum positions: slot t lives at odd exponent 5^t, its
        # conjugate at exponent -5^t == 2n - 5^t (both mapped to DFT bins
        # via j = (exp - 1) / 2).
        two_n = 2 * n
        self._slot_bins = np.zeros(self.slots, dtype=np.int64)
        self._conj_bins = np.zeros(self.slots, dtype=np.int64)
        exp = 1
        for t in range(self.slots):
            self._slot_bins[t] = (exp - 1) // 2
            self._conj_bins[t] = (two_n - exp - 1) // 2
            exp = exp * 5 % two_n

    # ------------------------------------------------------------------
    def _fft(self, values: np.ndarray, inverse: bool) -> np.ndarray:
        roots = self._inv_roots if inverse else self._fwd_roots
        a = values[self._rev].copy()
        length = 2
        n = self.n
        while length <= n:
            half = length // 2
            w = roots[length][: half]
            blocks = a.reshape(-1, length)
            u = blocks[:, :half].copy()
            v = blocks[:, half:] * w
            blocks[:, :half] = u + v
            blocks[:, half:] = u - v
            length *= 2
        if inverse:
            a = a / np.longdouble(n)
        return a

    # ------------------------------------------------------------------
    def encode(
        self, values: Sequence[complex] | np.ndarray, scale: Fraction | int | float
    ) -> list[int]:
        """Encode up to ``slots`` values at ``scale`` into integer coeffs.

        Shorter inputs are zero-padded; a scalar is broadcast to all
        slots.  Returns the ``n`` signed integer coefficients of the
        plaintext polynomial.
        """
        if np.isscalar(values):
            slot_vals = np.full(self.slots, complex(values), dtype=np.clongdouble)
        else:
            arr = np.asarray(values)
            if arr.size > self.slots:
                raise ParameterError(
                    f"{arr.size} values exceed the {self.slots} available slots"
                )
            slot_vals = np.zeros(self.slots, dtype=np.clongdouble)
            slot_vals[: arr.size] = arr.astype(np.clongdouble)
        s = fraction_to_longdouble(scale)
        spectrum = np.zeros(self.n, dtype=np.clongdouble)
        spectrum[self._slot_bins] = slot_vals * s
        spectrum[self._conj_bins] = np.conj(slot_vals) * s
        twisted = self._fft(spectrum, inverse=True)
        coeffs = np.real(twisted * self._zeta_neg_pow)
        rounded = np.rint(coeffs)
        return [int(v) for v in rounded]

    def encode_scalar(self, value: float, scale: Fraction | int | float) -> int:
        """Coefficient 0 of ``encode(value, scale)`` for a real scalar.

        A real constant in every slot is the constant polynomial, and the
        FFT of a constant spectrum only scales it by powers of two, so
        :meth:`encode` returns exactly ``[rint(value · scale), 0, 0, …]``
        — this integer, without the FFT.
        """
        s = fraction_to_longdouble(scale)
        return int(np.rint(np.longdouble(float(value)) * s))

    def decode(
        self, coeffs: Sequence[int], scale: Fraction | int | float
    ) -> np.ndarray:
        """Decode integer coefficients back to ``slots`` complex values.

        ``coeffs`` is a sequence of ints of any size, or an int64 vector
        (what decryption reconstructs), which converts in one cast: a
        64-bit ``longdouble`` mantissa holds every int64 exactly, and
        where the mantissa is narrower the cast rounds to nearest, as
        :func:`~repro.nt.floatext.ints_to_longdouble` does.  Returns a
        ``clongdouble`` array; callers needing float64 can cast.
        """
        if len(coeffs) != self.n:
            raise ParameterError(f"expected {self.n} coefficients, got {len(coeffs)}")
        if isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int64:
            values = coeffs.astype(np.longdouble)
        else:
            values = ints_to_longdouble(coeffs)
        twisted = values.astype(np.clongdouble) * self._zeta_pow
        spectrum = self._fft(twisted, inverse=False)
        s = fraction_to_longdouble(scale)
        return spectrum[self._slot_bins] / s


@lru_cache(maxsize=64)
def encoder_for(n: int) -> CkksEncoder:
    """Cached encoder instance per ring degree."""
    return CkksEncoder(n)
