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
product is a Shoup multiply ``x·w − ⌊x·w′/β⌋·q`` brought into
``[0, 2q)`` (:func:`repro.nt.modmath.mod_mul_shoup_lazy`,
:func:`repro.nt.modmath.mod_mul_shoup62_lazy`), and values ride
unreduced between stages — ``[0, 4q)`` forward, ``[0, 2q)`` inverse —
with one conditional subtraction per butterfly
(:func:`repro.nt.modmath.lazy_fold`) and one full reduction per
transform.  No stage divides.  The machine word is the stack's widest
modulus's: ``4q ≤ 2^32`` runs *everything* — working matrix, constants,
companions — in uint32 at β = 2^32, where the high word of ``x·w′`` is
one widening multiply (the 28-bit words BitPacker makes the sweet spot
land here); every wider stack runs in uint64 at β = 2^62, the
companion stored as two 31-bit limbs and the quotient built from three
limb products (``4q < 2^63 = 2β`` bounds every operand, as every
modulus is below 2^61; a prime in ``[2^30, 2^31)`` lands here too: its
``4q`` no longer fits the half word).  The word is known only to
``_twiddle_mul`` and ``lazy_fold``.

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

**Small rings: the four-step kernel.**  A stack whose word is uint32
(every ``q < 2^30``) and whose ``n ≤ 1024`` (``_FOUR_STEP_MAX_N``) runs
no stage loop.  With ``n = n1·n2``, ``n1 = 2^⌈log2(n)/2⌉``, coefficient
``j = n2·j1 + j2`` and output slot ``i = n2·i1 + i2``, the negacyclic
transform is an ``n1``-point DFT over ``j1``, an elementwise twiddle and
an ``n2``-point DFT over ``j2`` — the two ``√n``-sized phases of the
accelerators' NTT units and of GPU libraries such as Cheddar.  The ``ψ``
twist and the bit-reversed output order fold into three tables
(:func:`_four_step_exponents`): the two DFT matrices, stored as 14-bit
limbs in float64 (:func:`repro.nt.modmath.split_limbs`), and the
twiddle, in int64 beside its float64 ``w/q``.  A pass is one batched
``np.matmul`` per phase over all ``m·k`` matrices, a limb recombine to a
centred residue after each (:func:`repro.nt.modmath.limb_residue`), the
twiddle product between them exact in int64
(:func:`repro.nt.modmath.mod_mul_centred`) and one fold to ``[0, q)``
(:func:`repro.nt.modmath.centred_fold`): 34 array calls whatever
``log n`` is, where the stage loop spends about ten per stage.  It is
exact: every float holds an integer below 2^53 — a limb (``< 2^16``)
times a value below ``1.5·2^30``, summed over at most 32 terms, stays
below ``1.5·2^51`` — so BLAS computes each product exactly in any
summation order and on any thread count, and the quotient estimates are
bounded in :mod:`repro.nt.modmath`.  Outputs are bit-identical to the
stage loop's.  The gate is fixed at construction from the word and
``n`` alone; wider stacks and larger rings run the stage loop.

Contexts are cached per moduli tuple.  Every constant either kernel
multiplies by is indexed out of one row of ``ψ`` powers cached per
``(q, n)`` (:func:`_psi_row`); each direction's tables are built on that
direction's first transform, so a context that only runs forward holds
half of them; they are the software analogue of the accelerator's
precomputed twiddle ROMs.  In the stage loop each constant and its
companion (:func:`repro.nt.modmath.shoup_companion`, or on uint64 its
limbs, :func:`repro.nt.modmath.shoup_limbs`) is stored once, in the
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


@lru_cache(maxsize=4096)
def _psi_row(q: int, n: int) -> np.ndarray:
    """``ψ^e mod q`` for ``e`` in ``[0, 2n)``, cached per ``(q, n)``.

    Every constant either kernel multiplies by is one of these powers
    (``ψ^-e`` is ``ψ^(2n - e)``), or one of them times ``n^-1``; both
    kernels build their tables from this row by indexing it with
    exponents.  A prime that appears in many bases (every level of a
    chain shares its prefix) pays for its root search and powers once.
    """
    if not is_ntt_friendly(q, n):
        raise ParameterError(f"{q} is not an NTT-friendly prime for degree {n}")
    psi = _find_primitive_2n_root(q, n)
    powers = [1] * (2 * n)
    for e in range(1, 2 * n):
        powers[e] = powers[e - 1] * psi % q
    return np.array(powers, dtype=np.uint64)


def _bit_reversed_exponents(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents of the bit-reversed ``ψ`` and ``ψ^-1`` powers, mod 2n."""
    rev = np.array(_bit_reverse_permutation(n), dtype=np.int64)
    return rev, np.remainder(2 * n - rev, 2 * n)


def _psi_tables(q: int, n: int) -> tuple[list[int], list[int], int]:
    """Bit-reversed ``ψ`` power tables and ``n^{-1}`` for ``(q, n)``."""
    row = _psi_row(q, n)
    fwd, inv = _bit_reversed_exponents(n)
    return row[fwd].tolist(), row[inv].tolist(), modmath.mod_inv(n, q)


@lru_cache(maxsize=64)
def _four_step_exponents(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward four-step kernel's ``ψ`` exponents, mod ``2n``, on
    the grids its three tables are indexed by: ``left[i1, j1]``,
    ``twiddle[i1, j2]`` and ``right[i2, j2]`` (``n = n1·n2``,
    ``n1 = 2^⌈log2(n)/2⌉``).

    Coefficient ``j = n2·j1 + j2`` goes in; output slot
    ``i = n2·i1 + i2`` holds the value at ``ψ^(2k+1)`` for
    ``k = rev(i) = k1 + n1·k2``, where ``k1 = rev1(i1)`` and
    ``k2 = rev2(i2)`` reverse ``log2 n1`` and ``log2 n2`` bits.  As
    ``2n`` divides ``2·n1·n2·k2·j1``, ``(2k + 1)·j`` is congruent to
    ``n2·j1·(2k1 + 1) + j2·(2k1 + 1) + 2·n1·k2·j2``: one term per table.
    """
    n1 = 1 << (n.bit_length() // 2)
    n2 = n // n1
    k1 = np.array(_bit_reverse_permutation(n1), dtype=np.int64)
    k2 = np.array(_bit_reverse_permutation(n2), dtype=np.int64)
    j1, j2 = np.arange(n1), np.arange(n2)
    # Every exponent is below 2·n·n1 <= 2^16 before the reduction.
    odd = 2 * k1 + 1  # fhelint: ok[overflow-hazard] < 2·n1
    exponents = (
        np.multiply.outer(n2 * odd, j1),  # fhelint: ok[overflow-hazard]
        np.multiply.outer(odd, j2),
        np.multiply.outer(2 * n1 * k2, j2),  # fhelint: ok[overflow-hazard]
    )
    return tuple(np.remainder(e, 2 * n) for e in exponents)


#: Block size from which the stages run transposed (see ``_tail_view``).
_TAIL = 16

#: Largest ring degree the four-step kernel runs (uint32 word only).
_FOUR_STEP_MAX_N = 1 << 10

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
    in uint64 at β = 2^62 — exact for narrower rows too.  Every
    residue matrix in and out is uint64.  A single prime is
    the ``k = 1`` case (:func:`ntt_context`), which also takes and
    returns 1-D rows; an ``(m, k, n)`` stack is ``m`` such matrices.

    Parameters
    ----------
    moduli:
        NTT-friendly primes (``q ≡ 1 mod 2n``), each below 2^61.
    n:
        Polynomial degree, a power of two.
    """

    def __init__(self, moduli: Sequence[int], n: int):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ParameterError("batched NTT needs at least one modulus")
        widest = max(moduli)
        self.kind = modmath.backend_kind(widest)  # rejects q ≥ 2^61
        for q in moduli:
            _psi_row(q, n)  # rejects an unfriendly prime up front
        self.moduli = moduli
        self.n = n
        k = len(moduli)
        self._q_col = np.array(moduli, dtype=np.uint64).reshape(k, 1)
        # The word the stage loops work in.  Values ride up to 4q
        # between stages and must stay below β; a uint32 word also
        # holds every constant (w < q) and companion (w' < 2^32).
        self._word = np.uint32 if 4 * widest <= 1 << 32 else np.uint64
        self._tail = min(n, _TAIL)
        # Small rings over the uint32 word run the four-step kernel.
        self._four_step = self._word is np.uint32 and n <= _FOUR_STEP_MAX_N
        # The moduli in the word, as each kernel's folds read them: a
        # column over the stage loop's 5-D views; one per coefficient of
        # the four-step kernel's (k, n1, n2) blocks, whose tables
        # broadcast over the leading stack axis only.
        q = self._q_col.astype(self._word)
        if self._four_step:
            n1 = 1 << (n.bit_length() // 2)
            self._q = np.repeat(q, n).reshape(k, n1, n // n1)
        else:
            self._q = q.reshape(k, 1, 1, 1)
        self._two_q = self._q * 2

    def _plan(self, inverse: bool) -> list[tuple]:
        """One direction's stages, fewest blocks first: ``(shape, w, w')``.

        ``shape`` is the ``(k, blocks, 2, rows, cols)`` view a stage's
        butterflies take of each working matrix — ``[..., 0, :, :]`` the
        upper halves, ``[..., 1, :, :]`` the lower; ``w`` its constants,
        ``w'`` their Shoup companions at this stack's β (a ``(high,
        low)`` pair of 31-bit limbs on uint64), stored once, in the
        stack's word and in the order the view walks them, shaped to
        broadcast against a half.  A stage with half-length
        ``t > _TAIL / 2`` sees natural order as ``(blocks, 2, 1, t)``
        with one constant per block; a shorter one sees the transposed
        layout (:meth:`_tail_view`) as ``(blocks / cols, 2, t, cols)``,
        where block ``c * b + j`` sits at group ``j`` of column ``c``,
        so its constants are stored ``(b, 1, cols)``.  The inverse's
        list ends with the ``n^-1`` scale over the whole ``(k, 1, 1, n)``
        matrix.
        """
        k, n = len(self.moduli), self.n
        # Entry i is the bit-reversed ψ (ψ^-1) power butterfly block i
        # multiplies by.  Slot 0 (ψ^0) is read by no stage; the inverse
        # keeps n^-1 there, so a table is every constant of its direction.
        exponents = _bit_reversed_exponents(n)[inverse]
        table = np.stack([_psi_row(q, n)[exponents] for q in self.moduli])
        if inverse:
            table[:, 0] = [modmath.mod_inv(n, q) for q in self.moduli]
        if self._word is np.uint32:
            shoup = modmath.shoup_companion(table, self._q_col, 32)
        else:
            shoup = modmath.shoup_limbs(table, self._q_col)
        cols = n // self._tail

        def layout(tb: np.ndarray, lo: int, hi: int, width: int) -> np.ndarray:
            return (
                tb[:, lo:hi]
                .reshape(k, width, 1, -1)
                .swapaxes(1, 3)
                .astype(self._word, order="C")
            )

        def constants(lo: int, hi: int, width: int) -> list:
            w = layout(table, lo, hi, width)
            if isinstance(shoup, tuple):
                return [w, tuple(layout(tb, lo, hi, width) for tb in shoup)]
            return [w, layout(shoup, lo, hi, width)]

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

    def _four_step_tables(self, inverse: bool) -> tuple:
        """One direction's four-step tables, stacked over the primes:
        ``(left, right, w, w/q)``.

        ``left`` is ``(2, 1, k, n1, n1)``: the :func:`modmath.split_limbs`
        of the matrix the ``n1``-point phase multiplies from the left,
        shaped so that one ``np.matmul`` against an ``(m, k, n1, n2)``
        stack yields both limb sums as ``(2, m, k, n1, n2)``; ``right``
        is ``(2, 1, k, n2, n2)``, the limbs of the matrix the
        ``n2``-point phase multiplies from the right; ``w`` is the
        ``(k, n1, n2)`` int64 twiddle and ``w/q`` its float64 quotient.
        The inverse negates every exponent, transposes both matrices (it
        runs the phases in the opposite order) and scales its twiddle by
        ``n^-1``.
        """
        n, k = self.n, len(self.moduli)
        left, twiddle, right = _four_step_exponents(n)
        if inverse:
            # ψ^-e is ψ^(2n - e).
            left, twiddle, right = (
                np.remainder(2 * n - e, 2 * n) for e in (left.T, twiddle, right)
            )
        else:
            right = right.T
        rows = np.stack([_psi_row(q, n) for q in self.moduli])
        w = rows[:, twiddle]
        if inverse:
            n_inv = np.array([modmath.mod_inv(n, q) for q in self.moduli],
                             dtype=np.uint64).reshape(k, 1, 1)
            w = modmath.mod_mul(w, n_inv, self._q_col.reshape(k, 1, 1), "narrow")
        w = w.astype(np.int64)
        return (
            modmath.split_limbs(rows[:, left])[:, None],
            modmath.split_limbs(rows[:, right])[:, None],
            w,
            # fhelint: ok[dtype-routing] w/q only estimates a quotient
            w / self._q_col.reshape(k, 1, 1).astype(np.float64),
        )

    @cached_property
    def _four_step_forward(self):
        return self._four_step_tables(False)

    @cached_property
    def _four_step_inverse(self):
        return self._four_step_tables(True)

    @cached_property
    def _four_step_moduli(self) -> tuple[np.ndarray, np.ndarray]:
        """``q`` and ``1/q`` in float64, one per coefficient like
        ``_q`` (``q < 2^30`` is exact)."""
        q = self._q.astype(np.float64)  # fhelint: ok[dtype-routing] q < 2^30, exact
        return q, 1 / q

    def _four_step_pass(self, mat: np.ndarray, inverse: bool) -> np.ndarray:
        """The four-step kernel: two batched float64 matrix products,
        exact, with an int64 twiddle product between them.

        ``mat`` is seen as an ``(m, k, n1, n2)`` stack.  Forward runs
        the ``n1``-point phase (``left @ ·``, over ``j1``), the twiddle
        and the ``n2``-point phase (``· @ right``, over ``j2``); inverse
        runs them mirrored.  After each product
        :func:`modmath.limb_residue` recombines the two limb sums to a
        centred residue; :func:`modmath.mod_mul_centred` twiddles in
        place, and :func:`modmath.centred_fold` lands the result in
        ``[0, q)``.  Every value a float holds is an exact integer below
        2^53 (the bounds are in :mod:`repro.nt.modmath`).  The layout
        never changes: the per-prime tables broadcast over the leading
        ``m`` only, so every elementwise call runs over contiguous
        ``(k, n1, n2)`` blocks.
        """
        left, right, w, w_over_q = (
            self._four_step_inverse if inverse else self._four_step_forward
        )
        q, q_inv = self._four_step_moduli
        x = mat.reshape(-1, *self._q.shape).astype(
            # fhelint: ok[dtype-routing] exact integers below 2^53 in any
            # summation order or BLAS thread count (modmath.split_limbs)
            np.float64
        )
        y = np.matmul(x, right) if inverse else np.matmul(left, x)
        c = modmath.limb_residue(y[0], y[1], q, q_inv)
        modmath.mod_mul_centred(c, w, w_over_q, q, out=c)
        y = np.matmul(left, c) if inverse else np.matmul(c, right)
        r = modmath.limb_residue(y[0], y[1], q, q_inv)
        out = np.empty(r.shape, dtype=self._word)
        modmath.centred_fold(r, self._q, self._two_q, out)
        return out.astype(np.uint64).reshape(mat.shape)

    # ------------------------------------------------------------------
    def _check(self, mat: np.ndarray) -> None:
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (len(self.moduli), self.n):
            raise ParameterError(
                f"expected a ({len(self.moduli)}, {self.n}) residue matrix "
                f"or an (m, {len(self.moduli)}, {self.n}) stack of them, "
                f"got shape {mat.shape}"
            )
        if mat.dtype != np.uint64:
            raise ParameterError(
                f"NTT over {self.kind} moduli requires a uint64 matrix, "
                f"got {mat.dtype}"
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
        and in ``[0, 2q)`` for every ``x < 4q`` — the one width-aware
        multiply.  uint32 Shoup-multiplies at β = 2^32; uint64 at
        β = 2^62 from the companion's limbs (``4q < 2^63``), whose
        ``[0, 4q)`` one fold by ``2q`` brings in.
        """
        if self._word is np.uint32:
            return modmath.mod_mul_shoup_lazy(x, w, w_shoup, self._q, out)
        r = modmath.mod_mul_shoup62_lazy(x, w, w_shoup, self._q)
        return modmath.lazy_fold(r, self._two_q, out=out)

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
        """The numpy forward kernel: :meth:`_four_step_pass` on a small
        uint32 ring, else the stage loop.

        Cooley–Tukey DIT with Harvey's lazy butterfly: values enter a
        stage in ``[0, 4q)``, the upper half folds to ``[0, 2q)``, the
        lower half's twiddle product lands in ``[0, 2q)``, and their sum
        and ``2q``-shifted difference are ``[0, 4q)`` again.  The one
        full reduction runs on the transposed layout, just before the
        copy back to natural order.
        """
        if self._four_step:
            return self._four_step_pass(mat, inverse=False)
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
        return a.swapaxes(3, 4).astype(np.uint64, order="C").reshape(mat.shape)

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
        """The numpy inverse kernel: :meth:`_four_step_pass` on a small
        uint32 ring, else the stage loop.

        Gentleman–Sande DIF with the lazy butterfly mirrored: values
        stay in ``[0, 2q)``; the sum folds back from ``[0, 4q)``, the
        ``2q``-shifted difference (``< 4q``) goes through the twiddle
        product.  The ``n^-1`` scale is one more constant multiply and
        the one full reduction follows it.
        """
        if self._four_step:
            return self._four_step_pass(mat, inverse=True)
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
        return a.astype(np.uint64, copy=False).reshape(mat.shape)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two coefficient-form polynomials mod ``X^n + 1``."""
        product = modmath.mod_mul(
            self.forward(np.atleast_2d(a)),
            self.forward(np.atleast_2d(b)),
            self._q_col,
            self.kind,
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
