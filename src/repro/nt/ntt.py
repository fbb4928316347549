"""Negacyclic number-theoretic transform over ``Z_q[X]/(X^N + 1)``.

This is the workhorse of every polynomial multiplication in CKKS and the
unit the accelerators dedicate their largest functional units to (the NTT
FUs of CraterLake, Fig. 9).  We implement the standard fused-twist
iterative transforms (Longa–Naehrig): Cooley–Tukey decimation-in-time for
the forward transform and Gentleman–Sande decimation-in-frequency for the
inverse, with powers of the primitive ``2N``-th root ``ψ`` folded into the
twiddle tables so no separate pre/post twist pass is needed.

The butterflies are *stage-vectorized* and *batched across primes*: one
context (:class:`NttRowsContext`) transforms a whole ``(k, n)`` residue
matrix — one row per RNS prime — and each of the ``log2 n`` stages is a
constant number of numpy calls on a ``(k, blocks, 2, rows, cols)`` view
of the working matrix, the stage's constants broadcast against a half
block; all blocks of all rows update at once — there is no Python-level
loop over butterfly blocks or over primes.  Each direction's stage loop
is written exactly once; a single prime is the ``k = 1`` context
(:func:`ntt_context`).

**Lazy and division-free.**  The butterflies are Harvey's: every twiddle
product is a Shoup multiply ``x·w − ⌊x·w′/β⌋·q ∈ [0, 2q)`` (valid for any
``x < β``; :func:`repro.nt.modmath.mod_mul_shoup_lazy`), and values ride
unreduced between stages — ``[0, 4q)`` forward, ``[0, 2q)`` inverse —
with one conditional subtraction per butterfly
(:func:`repro.nt.modmath.lazy_fold`) and one full reduction per
transform.  No stage divides.  The machine word β is the stack's widest
modulus's: ``4q ≤ 2^32`` runs *everything* — working matrix, constants,
companions — in uint32, where the high word of ``x·w′`` is one widening
multiply (the 28-bit words BitPacker makes the sweet spot land here);
wider stacks below 2^61 run in uint64 with the limb ``mulhi64`` (a prime
in ``[2^30, 2^31)`` too: its ``4q`` no longer fits the half word); a
modulus ≥ 2^61 makes the stack Python ints, which reduce fully at every
multiply.  The word is known only to ``_twiddle_mul`` and ``lazy_fold``.

**Short strides run transposed.**  A stage with half-length ``t`` walks
numpy inner loops ``t`` long, so the last forward (first inverse) stages
would crawl.  Once a block fits ``_TAIL = 16`` coefficients the matrix
is copied to a ``(_TAIL, n / _TAIL)`` layout — the six-step shape the
accelerator's NTT FU uses — where those stages' inner loops are
``n / _TAIL`` long and the twiddle varies along the contiguous axis.

**Siblings transform together.**  Either direction also takes an
``(m, k, n)`` stack — ``m`` polynomials over the same ``k`` primes — and
runs it as one pass: the stage constants broadcast over the leading
axis, so the per-stage Python cost is paid once for all ``m``.

Contexts are cached per moduli tuple and assembled from per-prime tables
cached per ``(q, n)`` — each direction's per-stage constants on that
direction's first transform, so a context that only runs forward holds
half of them; they are the software analogue of the accelerator's
precomputed twiddle ROMs.  Each constant and its companion
(:func:`repro.nt.modmath.shoup_companion`) is stored once, in the
stack's word and in the order its stage reads it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

import repro.backends as _backends
from repro.errors import ParameterError
from repro.nt import modmath
from repro.nt.primes import is_ntt_friendly
from repro.obs import core as _obs


@lru_cache(maxsize=64)
def _bit_reverse_permutation(n: int) -> tuple[int, ...]:
    bits = n.bit_length() - 1
    return tuple(int(format(i, f"0{bits}b")[::-1], 2) for i in range(n))


def _find_primitive_2n_root(q: int, n: int) -> int:
    """A primitive ``2n``-th root of unity mod ``q`` (``n`` a power of 2).

    Draw ``x`` and set ``ψ = x^((q-1)/2n)``; ``ψ`` has order dividing
    ``2n``.  Because ``2n`` is a power of two, ``ψ^n == -1`` certifies the
    order is exactly ``2n``.
    """
    exponent = (q - 1) // (2 * n)
    for x in range(2, q):
        psi = pow(x, exponent, q)
        if pow(psi, n, q) == q - 1:
            return psi
    raise ParameterError(f"no primitive 2*{n}-th root of unity mod {q}")


def _psi_tables(q: int, n: int) -> tuple[list[int], list[int], int]:
    """Bit-reversed ``ψ`` power tables and ``n^{-1}`` for ``(q, n)``."""
    psi = _find_primitive_2n_root(q, n)
    psi_inv = modmath.mod_inv(psi, q)
    rev = _bit_reverse_permutation(n)
    powers = [1] * n
    for i in range(1, n):
        powers[i] = powers[i - 1] * psi % q
    inv_powers = [1] * n
    for i in range(1, n):
        inv_powers[i] = inv_powers[i - 1] * psi_inv % q
    psi_rev = [powers[rev[i]] for i in range(n)]
    psi_inv_rev = [inv_powers[rev[i]] for i in range(n)]
    return psi_rev, psi_inv_rev, modmath.mod_inv(n, q)


def _as_table(values: list[int], q: int) -> np.ndarray:
    if modmath.dtype_for_modulus(q) is object:
        # Twiddle tables, not residue storage; dtype already routed by
        # the dtype_for_modulus call one line up.
        out = np.empty(len(values), dtype=object)  # fhelint: ok[dtype-routing]
        out[:] = values
        return out
    return np.array(values, dtype=np.uint64)


@lru_cache(maxsize=4096)
def _prime_tables(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached natural-order ``(forward, inverse)`` constants for one prime.

    Row ``i`` of each is the bit-reversed ``ψ`` (``ψ^-1``) power a
    butterfly block ``i`` multiplies by.  Slot 0 is ``ψ^0 = 1``, which
    no stage reads; the inverse table keeps ``n^-1`` there, so a table
    is *every* constant its direction multiplies by.  This is the unit
    the stacked contexts are assembled from: a prime that appears in
    many bases (every level of a chain shares its prefix) pays for its
    root search and power tables once.
    """
    if not is_ntt_friendly(q, n):
        raise ParameterError(f"{q} is not an NTT-friendly prime for degree {n}")
    psi_rev, psi_inv_rev, n_inv = _psi_tables(q, n)
    psi_inv_rev[0] = n_inv
    return _as_table(psi_rev, q), _as_table(psi_inv_rev, q)


#: Block size from which the stages run transposed (see ``_tail_view``).
_TAIL = 16

#: Working-matrix bytes up to which siblings run as one stack: while a
#: stage's matrix and temporaries fit the core's private cache a wider
#: stack saves per-stage Python cost; past it, parts run faster.
_STACK_BYTES = 3 << 17


class NttRowsContext:
    """Negacyclic NTT over a stack of primes, one residue row per prime.

    Transforms a ``(k, n)`` residue matrix — row ``i`` reduced mod
    ``moduli[i]`` — in one pass per stage, with the per-prime constants
    stacked per stage and the moduli broadcast as a ``(k, 1, 1, 1)``
    column over the stage views.  The widest modulus picks the machine
    word β for the whole stack: ``4q ≤ 2^32`` works in uint32 (matrix,
    constants and Shoup multiply at β = 2^32), anything else below 2^61
    in uint64 at β = 2^64 — exact for narrower rows too — and one
    modulus ≥ 2^61 makes everything object-dtype.  A single prime is
    the ``k = 1`` case (:func:`ntt_context`), which also takes and
    returns 1-D rows; an ``(m, k, n)`` stack is ``m`` such matrices.

    Parameters
    ----------
    moduli:
        NTT-friendly primes (``q ≡ 1 mod 2n``).
    n:
        Polynomial degree, a power of two.
    """

    def __init__(self, moduli: Sequence[int], n: int):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ParameterError("batched NTT needs at least one modulus")
        for q in moduli:
            _prime_tables(q, n)  # rejects an unfriendly prime up front
        self.moduli = moduli
        self.n = n
        widest = max(moduli)
        self.kind = modmath.backend_kind(widest)
        self._dtype = modmath.dtype_for_modulus(widest)
        k = len(moduli)
        self._q_col = np.array(moduli, dtype=self._dtype).reshape(k, 1)
        # The word the stage loops work in.  Values ride up to 4q
        # between stages and must stay below β; a uint32 word also
        # holds every constant (w < q) and companion (w' < 2^32).
        self._word = np.uint32 if 4 * widest <= 1 << 32 else self._dtype
        self._tail = min(n, _TAIL)
        self._q = self._q_col.astype(self._word).reshape(k, 1, 1, 1)
        self._two_q = self._q * 2

    def _plan(self, inverse: bool) -> list[tuple]:
        """One direction's stages, fewest blocks first: ``(shape, w, w')``.

        ``shape`` is the ``(k, blocks, 2, rows, cols)`` view a stage's
        butterflies take of each working matrix — ``[..., 0, :, :]`` the
        upper halves, ``[..., 1, :, :]`` the lower; ``w`` its constants,
        ``w'`` their Shoup companions at this stack's β (``None`` on
        object rows), stored once, in the stack's word and in the order the
        view walks them, shaped to broadcast against a half.  A stage
        with half-length ``t > _TAIL / 2`` sees natural order as
        ``(blocks, 2, 1, t)`` with one constant per block; a shorter
        one sees the transposed layout (:meth:`_tail_view`) as
        ``(blocks / cols, 2, t, cols)``, where block ``c * b + j`` sits
        at group ``j`` of column ``c``, so its constants are stored
        ``(b, 1, cols)``.  The inverse's list ends with the ``n^-1``
        scale over the whole ``(k, 1, 1, n)`` matrix.
        """
        k, n = len(self.moduli), self.n
        # np.stack lands on the widest row's dtype: one object table
        # makes the stack object (exact Python ints throughout).
        table = np.stack([_prime_tables(q, n)[inverse] for q in self.moduli])
        shoup = None
        if self._word is not object:
            beta_bits = 8 * np.dtype(self._word).itemsize
            shoup = modmath.shoup_companion(table, self._q_col, beta_bits)
        cols = n // self._tail

        def constants(lo: int, hi: int, width: int) -> list:
            return [
                tb
                if tb is None
                else tb[:, lo:hi]
                .reshape(k, width, 1, -1)
                .swapaxes(1, 3)
                .astype(self._word, order="C")
                for tb in (table, shoup)
            ]

        plan = []
        m = 1
        while m < n:
            t = n // (2 * m)
            if 2 * t > _TAIL:
                plan.append(((k, m, 2, 1, t), *constants(m, 2 * m, 1)))
            else:
                plan.append(((k, m // cols, 2, t, cols), *constants(m, 2 * m, cols)))
            m *= 2
        if inverse:
            plan.append(((k, 1, 1, n), *constants(0, 1, 1)))
        return plan

    # Each direction's constants are built on that direction's first
    # transform: a context that only ever runs forward (the rows a
    # keyswitch digit is extended to) never holds the inverse's.
    @cached_property
    def _forward_plan(self):
        return self._plan(False)

    @cached_property
    def _inverse_plan(self):
        return self._plan(True)

    # ------------------------------------------------------------------
    def _check(self, mat: np.ndarray) -> None:
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (len(self.moduli), self.n):
            raise ParameterError(
                f"expected a ({len(self.moduli)}, {self.n}) residue matrix "
                f"or an (m, {len(self.moduli)}, {self.n}) stack of them, "
                f"got shape {mat.shape}"
            )
        if mat.dtype != self._dtype:
            raise ParameterError(
                f"NTT over {self.kind} moduli requires a "
                f"{np.dtype(self._dtype).name} matrix, got {mat.dtype}"
            )

    def _tail_view(self, a: np.ndarray) -> np.ndarray:
        """A natural-order ``(m, k, ..., n)`` stack seen as
        ``(m, k, 1, _TAIL, n / _TAIL)``: entry ``[s, r, 0, j, c]`` is
        coefficient ``c * _TAIL + j`` of row ``r`` of polynomial ``s``.

        The stages whose blocks fit ``_TAIL`` run on a contiguous copy
        of this view, so their numpy inner loops are ``n / _TAIL`` long
        instead of ``t ≤ 8`` and the twiddle varies along the contiguous
        axis — the six-step shape the accelerator's NTT FU uses.
        """
        k, cols = len(self.moduli), self.n // self._tail
        return a.reshape(-1, k, 1, cols, self._tail).swapaxes(3, 4)

    def parts(self, m: int) -> int:
        """How many passes a stack of ``m`` matrices runs in: one, unless
        it is too big for the cache (``_STACK_BYTES``)."""
        one = len(self.moduli) * self.n * np.dtype(self._word).itemsize
        return -(-m // max(1, _STACK_BYTES // one))

    def _by_parts(self, kernel, mat: np.ndarray) -> np.ndarray:
        """``kernel(self, mat)`` for an ``(m, k, n)`` stack, split evenly
        when it has to run in more than one part."""
        parts = self.parts(len(mat))
        if parts == 1:
            return kernel(self, mat)
        return np.concatenate(
            [kernel(self, part) for part in np.array_split(mat, parts)]
        )

    def _twiddle_mul(self, x: np.ndarray, w, w_shoup, out=None) -> np.ndarray:
        """``x`` times a stage's constants, lazily: congruent mod ``q``
        and in ``[0, 2q)`` for any ``x < β`` — the one width-aware
        multiply.  Machine words Shoup-multiply at their β; big ones
        are Python ints and reduce fully.
        """
        if w_shoup is None:
            return np.remainder(x * w, self._q, out=out)
        return modmath.mod_mul_shoup_lazy(x, w, w_shoup, self._q, out)

    def forward(self, mat: np.ndarray) -> np.ndarray:
        """Coefficient -> NTT transform of a ``(k, n)`` matrix or stack.

        Crosses the kernel boundary (:mod:`repro.backends`), which
        counts the call and lands back on :meth:`_forward_stages`.
        """
        if mat.ndim == 1:
            return self.forward(mat[None])[0]
        self._check(mat)
        if mat.ndim == 3:
            return self._by_parts(_backends.ntt_forward, mat)
        return _backends.ntt_forward(self, mat)

    def _forward_stages(self, mat: np.ndarray) -> np.ndarray:
        """The stage-vectorized numpy forward kernel.

        Cooley–Tukey DIT with Harvey's lazy butterfly: values enter a
        stage in ``[0, 4q)``, the upper half folds to ``[0, 2q)``, the
        lower half's twiddle product lands in ``[0, 2q)``, and their sum
        and ``2q``-shifted difference are ``[0, 4q)`` again.  The one
        full reduction runs on the transposed layout, just before the
        copy back to natural order.
        """
        # 5-D from the start (a lone matrix is a stack of one), so that
        # n = 1 (no stage, never transposed) leaves through the same
        # reduction and copy as everything else.
        a = mat.astype(self._word).reshape(-1, len(self.moduli), 1, 1, self.n)
        t = self.n
        for shape, w, w_shoup in self._forward_plan:
            t //= 2
            if 2 * t == self._tail:
                a = self._tail_view(a).copy()
            blk = a.reshape(-1, *shape)
            u, v = blk[:, :, :, 0], blk[:, :, :, 1]
            x = modmath.lazy_fold(u, self._two_q)
            y = self._twiddle_mul(v, w, w_shoup)
            np.add(x, y, out=u)
            np.subtract(x, y, out=y)
            np.add(y, self._two_q, out=v)
        modmath.lazy_fold(a, self._two_q, out=a)
        modmath.lazy_fold(a, self._q, out=a)
        return a.swapaxes(3, 4).astype(self._dtype, order="C").reshape(mat.shape)

    def inverse(self, mat: np.ndarray) -> np.ndarray:
        """NTT -> coefficient transform of a ``(k, n)`` matrix or stack.

        Crosses the kernel boundary (:mod:`repro.backends`), which
        counts the call and lands back on :meth:`_inverse_stages`.
        """
        if mat.ndim == 1:
            return self.inverse(mat[None])[0]
        self._check(mat)
        if mat.ndim == 3:
            return self._by_parts(_backends.ntt_inverse, mat)
        return _backends.ntt_inverse(self, mat)

    def _inverse_stages(self, mat: np.ndarray) -> np.ndarray:
        """The stage-vectorized numpy inverse kernel.

        Gentleman–Sande DIF with the lazy butterfly mirrored: values
        stay in ``[0, 2q)``; the sum folds back from ``[0, 4q)``, the
        ``2q``-shifted difference (``< 4q``) goes through the twiddle
        product.  The ``n^-1`` scale is one more constant multiply and
        the one full reduction follows it.
        """
        *stages, (whole, n_inv, n_inv_shoup) = self._inverse_plan
        a = self._tail_view(mat).astype(self._word, order="C")
        t = 1
        for shape, w, w_shoup in reversed(stages):
            blk = a.reshape(-1, *shape)
            u, v = blk[:, :, :, 0], blk[:, :, :, 1]
            d = u - v
            d += self._two_q
            modmath.lazy_fold(u + v, self._two_q, out=u)
            self._twiddle_mul(d, w, w_shoup, out=v)
            if 2 * t == self._tail:
                a = a.swapaxes(3, 4).copy()
            t *= 2
        a = self._twiddle_mul(a.reshape(-1, *whole), n_inv, n_inv_shoup)
        modmath.lazy_fold(a, self._q, out=a)
        return a.astype(self._dtype, copy=False).reshape(mat.shape)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two coefficient-form polynomials mod ``X^n + 1``."""
        product = modmath.mod_mul(
            self.forward(np.atleast_2d(a)),
            self.forward(np.atleast_2d(b)),
            self._q_col,
        )
        return self.inverse(product).reshape(a.shape)


@lru_cache(maxsize=1024)
def galois_permutation(n: int, g: int) -> np.ndarray:
    """``X -> X^g`` (``g`` odd) as a gather on forward-transform output:
    ``ntt(a(X^g)) == ntt(a)[..., galois_permutation(n, g)]``.

    Slot ``i`` holds the value at ``ψ^(2·rev(i) + 1)`` whatever the
    prime, where ``a(X^g)`` takes the value ``a`` takes at
    ``ψ^(g·(2·rev(i) + 1))`` — another slot of the same row, no sign.
    """
    rev = np.array(_bit_reverse_permutation(n), dtype=np.int64)
    # Exponents and g are below 2n, so the int64 product is below 4n^2.
    turned = (2 * rev + 1) * (g % (2 * n)) % (2 * n)  # fhelint: ok[overflow-hazard]
    return rev[(turned - 1) // 2]


@lru_cache(maxsize=1024)
def ntt_rows_context(moduli: tuple[int, ...], n: int) -> NttRowsContext:
    """Cached :class:`NttRowsContext` for ``(moduli, n)``."""
    return NttRowsContext(moduli, n)


def ntt_context(q: int, n: int) -> NttRowsContext:
    """The cached single-prime (``k = 1``) context for ``(q, n)``."""
    return ntt_rows_context((q,), n)


def forward_rows(mat: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Forward NTT of every row of a ``(k, n)`` residue matrix — or of an
    ``(m, k, n)`` stack of matrices over the same moduli — at once."""
    if not isinstance(moduli, tuple):
        moduli = tuple(int(q) for q in moduli)
    out = ntt_rows_context(moduli, mat.shape[-1]).forward(mat)
    if _obs.ACTIVE:
        # A lazy value that escaped the stage loop's one full reduction
        # is caught at the kernel boundary, in the output.
        _obs.kernel("ntt.forward", mat.size, moduli,
                    (("forward_rows input", mat), ("forward_rows output", out)))
    return out


def inverse_rows(mat: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Inverse NTT of every row of a ``(k, n)`` residue matrix — or of an
    ``(m, k, n)`` stack of matrices over the same moduli — at once."""
    if not isinstance(moduli, tuple):
        moduli = tuple(int(q) for q in moduli)
    out = ntt_rows_context(moduli, mat.shape[-1]).inverse(mat)
    if _obs.ACTIVE:
        _obs.kernel("ntt.inverse", mat.size, moduli,
                    (("inverse_rows input", mat), ("inverse_rows output", out)))
    return out
