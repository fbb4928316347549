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

Both transforms are ``np.fft`` calls in complex128.  float64 suffices:
its 53-bit mantissa leaves the encode/decode rounding (a few ulps of
``n``-term sums) far below the scheme noise the precision experiments
measure, whose error-free bits top out near 45 (paper Figs. 18-19).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import ParameterError


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
        # Twists m_k * zeta^k mapping the negacyclic embedding to a DFT.
        self._zeta = np.exp(1j * np.pi * np.arange(n) / n)
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
    def encode(
        self, values: Sequence[complex] | np.ndarray, scale: Fraction | int | float
    ) -> list[int]:
        """Encode up to ``slots`` values at ``scale`` into integer coeffs.

        Shorter inputs are zero-padded; a scalar is broadcast to all
        slots.  Returns the ``n`` signed integer coefficients of the
        plaintext polynomial.
        """
        if np.isscalar(values):
            slot_vals = np.full(self.slots, complex(values))
        else:
            arr = np.asarray(values)
            if arr.size > self.slots:
                raise ParameterError(
                    f"{arr.size} values exceed the {self.slots} available slots"
                )
            slot_vals = np.zeros(self.slots, dtype=np.complex128)
            slot_vals[: arr.size] = arr
        s = float(scale)
        spectrum = np.empty(self.n, dtype=np.complex128)
        spectrum[self._slot_bins] = slot_vals * s
        spectrum[self._conj_bins] = np.conj(slot_vals) * s
        twisted = np.fft.fft(spectrum, norm="forward")
        coeffs = np.real(twisted * np.conj(self._zeta))
        return [int(v) for v in np.rint(coeffs).tolist()]

    def encode_scalar(self, value: float, scale: Fraction | int | float) -> int:
        """Coefficient 0 of ``encode(value, scale)`` for a real scalar.

        A real constant in every slot is the constant polynomial, and the
        FFT of a constant spectrum only scales it by powers of two, so
        :meth:`encode` returns exactly ``[rint(value · scale), 0, 0, …]``
        — this integer, without the FFT.
        """
        return int(np.rint(float(value) * float(scale)))

    def decode(
        self, coeffs: Sequence[int], scale: Fraction | int | float
    ) -> np.ndarray:
        """Decode integer coefficients back to ``slots`` complex values.

        ``coeffs`` is a sequence of ints of any size, or an int64 vector
        (what decryption reconstructs); either converts to float64 with
        one correctly rounded cast.  Returns a complex128 array.
        """
        if len(coeffs) != self.n:
            raise ParameterError(f"expected {self.n} coefficients, got {len(coeffs)}")
        twisted = np.asarray(coeffs, dtype=np.float64) * self._zeta
        spectrum = np.fft.ifft(twisted, norm="forward")
        return spectrum[self._slot_bins] / float(scale)


@lru_cache(maxsize=64)
def encoder_for(n: int) -> CkksEncoder:
    """Cached encoder instance per ring degree."""
    return CkksEncoder(n)
