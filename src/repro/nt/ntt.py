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
product is ``x·w − q̂·q`` for a quotient estimate ``q̂`` that is never
too large, brought into ``[0, 2q)``, and values ride unreduced between
stages — ``[0, 4q)`` forward, ``[0, 2q)`` inverse — with one
conditional subtraction per butterfly
(:func:`repro.nt.modmath.lazy_fold`) and one full reduction per
transform.  No stage divides.  The machine word is the stack's widest
modulus's: ``4q ≤ 2^31`` runs the working matrix and the constants in
uint32, the quotient read from float64 as the int32 view of ``x``
times a stored ``w/q`` (:func:`repro.nt.modmath.mod_mul_float_lazy`:
int32 ↔ float64 are the casts numpy does fastest; the 28-bit words
BitPacker makes the sweet spot land here); every wider stack runs in
uint64 at β = 2^62, a Shoup multiply whose companion is stored as two
31-bit limbs and whose quotient is built from three limb products
(:func:`repro.nt.modmath.mod_mul_shoup62_lazy`; ``4q < 2^63 = 2β``
bounds every operand, as every modulus is below 2^61; a prime in
``[2^29, 2^31)`` lands here too: its ``4q`` no longer fits the int32
view).  The word is known only to ``_twiddle_mul`` and ``lazy_fold``.
The inverse's ``n^-1`` costs no pass of its own: on uint32 it rides
the last stage's butterfly (``u' = (u + v)·n^-1``,
``v' = d·(w·n^-1)``), on uint64 it is the one constant multiply
before the full reduction, and on the four-step kernel it is folded
into the twiddle table.  An inverse also takes a per-row ``scale``
(``INTT(x)·scale_i mod q_i``), which rides the same constant: that is
how a mod-down's digit and ``P^-1`` constants cost no pass either
(:func:`repro.rns.convert.scale_down`).

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

**Small rings: the four-step kernel.**  A stack whose every
``q < 2^30`` and whose ``n ≤ 1024`` (``_FOUR_STEP_MAX_N``) runs no stage
loop, and works in uint32.  With ``n = n1·n2``,
``n1 = 2^⌈log2(n)/2⌉``, coefficient ``j = n2·j1 + j2`` and output slot
``i = n2·i1 + i2``, the negacyclic transform is an ``n1``-point DFT
over ``j1``, an elementwise twiddle and an ``n2``-point DFT over
``j2`` — the two ``√n``-sized phases of the
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
stage loop's.  The gate is fixed at construction from the widest
modulus and ``n`` alone; wider stacks and larger rings run the stage
loop.

Contexts are cached per moduli tuple.  Every constant either kernel
multiplies by is indexed out of one row of ``ψ`` powers cached per
``(q, n)`` (:func:`_psi_row`); each direction's tables are built on that
direction's first transform, so a context that only runs forward holds
half of them; they are the software analogue of the accelerator's
precomputed twiddle ROMs.  In the stage loop each constant and its
quotient helper (on uint32 its float64 ``w/q``,
:func:`repro.nt.modmath.float_quotient`; on uint64 its Shoup limbs,
:func:`repro.nt.modmath.shoup_limbs`) is stored once, in the order its
stage reads it.  The constants an inverse's ``n^-1·scale`` rides are
built once per scale and kept on the context.
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


def _centred(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A four-step twiddle as :func:`modmath.mod_mul_centred` reads it:
    the uint64 table ``w < q`` in int64, and its float64 ``w/q``."""
    return (
        w.astype(np.int64),
        w / q.astype(np.float64),  # fhelint: ok[dtype-routing] estimates a quotient
    )


#: Block size from which the stages run transposed (see ``_tail_view``).
_TAIL = 16

#: Largest ring degree the four-step kernel runs (primes below 2^30 only).
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
    word for the whole stack: ``4q ≤ 2^31`` works in uint32 (matrix and
    constants, the quotient from float64), anything else below 2^61 in
    uint64 at β = 2^62 — exact for narrower rows too.  Every residue
    matrix in and out is uint64.  A single prime is the ``k = 1`` case
    (:func:`ntt_context`), which also takes and returns 1-D rows; an
    ``(m, k, n)`` stack is ``m`` such matrices.

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
        self._tail = min(n, _TAIL)
        # Small rings of primes below 2^30 run the four-step kernel.
        self._four_step = widest < 1 << 30 and n <= _FOUR_STEP_MAX_N
        # The word the kernel works in.  The four-step fold holds values
        # below 3.5q < 2^32; the stage loops carry values up to 4q, which
        # the uint32 multiply reads as int32, so that word needs 4q ≤ 2^31.
        narrow = self._four_step or 4 * widest <= 1 << 31
        self._word = np.uint32 if narrow else np.uint64
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
        # The constants an inverse's n^-1 · scale rides, one entry per
        # scale (_inverse_finish).
        self._finish: dict = {}

    def _quotient_helper(self, w: np.ndarray):
        """What :meth:`_twiddle_mul` reads beside a uint64 constant array
        ``w`` (``(k, ...)``, row ``i`` below ``moduli[i]``): its float64
        ``w/q`` (:func:`modmath.float_quotient`) on the uint32 word, its
        Shoup limbs (:func:`modmath.shoup_limbs`) on uint64."""
        q = self._q_col.reshape(-1, *(1,) * (w.ndim - 1))
        if self._word is np.uint32:
            return modmath.float_quotient(w, q)
        return modmath.shoup_limbs(w, q)

    def _plan(self, inverse: bool) -> list[tuple]:
        """One direction's stages, fewest blocks first: ``(shape, w, w̃)``.

        ``shape`` is the ``(k, blocks, 2, rows, cols)`` view a stage's
        butterflies take of each working matrix — ``[..., 0, :, :]`` the
        upper halves, ``[..., 1, :, :]`` the lower; ``w`` its constants,
        in the stack's word, and ``w̃`` what the multiply reads beside
        them (:meth:`_quotient_helper`), stored once, in the order the
        view walks them, shaped to broadcast against a half.  A stage
        with half-length ``t > _TAIL / 2`` sees natural order as
        ``(blocks, 2, 1, t)`` with one constant per block; a shorter one
        sees the transposed layout (:meth:`_tail_view`) as
        ``(blocks / cols, 2, t, cols)``, where block ``c * b + j`` sits
        at group ``j`` of column ``c``, so its constants are stored
        ``(b, 1, cols)``.
        """
        k, n = len(self.moduli), self.n
        # Entry i is the bit-reversed ψ (ψ^-1) power butterfly block i
        # multiplies by.  Slot 0 (ψ^0) is read by no stage.
        exponents = _bit_reversed_exponents(n)[inverse]
        table = np.stack([_psi_row(q, n)[exponents] for q in self.moduli])
        helper = self._quotient_helper(table)
        cols = n // self._tail

        def layout(tb: np.ndarray, lo: int, hi: int, width: int) -> np.ndarray:
            # Residues go to the word; a float64 w/q stays float64.
            dtype = self._word if tb.dtype == np.uint64 else tb.dtype
            return (
                tb[:, lo:hi]
                .reshape(k, width, 1, -1)
                .swapaxes(1, 3)
                .astype(dtype, order="C")
            )

        def constants(lo: int, hi: int, width: int) -> list:
            w = layout(table, lo, hi, width)
            if isinstance(helper, tuple):
                return [w, tuple(layout(tb, lo, hi, width) for tb in helper)]
            return [w, layout(helper, lo, hi, width)]

        plan = []
        m = 1
        while m < n:
            t = n // (2 * m)
            if 2 * t > _TAIL:
                plan.append(((k, m, 2, 1, t), *constants(m, 2 * m, 1)))
            else:
                plan.append(((k, m // cols, 2, t, cols), *constants(m, 2 * m, cols)))
            m *= 2
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

    def _inverse_finish(self, scale: tuple[int, ...] | None) -> tuple:
        """The constants that carry an inverse's ``c_i = n^-1 · scale_i
        mod q_i`` (``scale=None`` reads as ones), built on the first
        inverse at that ``scale`` and kept on the context:

        - four-step: the inverse twiddle times ``c``, in int64 beside its
          float64 ``w/q`` (:meth:`_four_step_pass`);
        - uint32 stage loop: ``((c, c̃), (w_1·c, (w_1·c)~))``, the merged
          last butterfly's two constants (``w_1`` is that stage's own
          twiddle);
        - uint64 stage loop: ``((c, c̃),)``, the one multiply after the
          last stage.

        ``~`` is :meth:`_quotient_helper`; the stage loops' constants are
        ``(k, 1, 1, 1)`` against the stage views.
        """
        finish = self._finish.get(scale)
        if finish is not None:
            return finish
        k, n = len(self.moduli), self.n
        c = np.array(
            [modmath.mod_inv(n, q) * s % q
             for q, s in zip(self.moduli, scale or (1,) * k)],
            dtype=np.uint64,
        ).reshape(k, 1, 1)
        q = self._q_col.reshape(k, 1, 1)
        if self._four_step:
            twiddle = self._four_step_inverse[2]
            finish = _centred(modmath.mod_mul(twiddle, c, q, "narrow"), q)
        else:
            c = c.reshape(k, 1, 1, 1)
            consts = [c]
            if self._word is np.uint32:
                w_1 = self._inverse_plan[0][1].astype(np.uint64)
                consts.append(modmath.mod_mul(w_1, c, q[..., None], "narrow"))
            finish = tuple(
                (v.astype(self._word), self._quotient_helper(v)) for v in consts
            )
        self._finish[scale] = finish
        return finish

    def _four_step_tables(self, inverse: bool) -> tuple:
        """One direction's four-step tables, stacked over the primes:
        ``(left, right, twiddle)``.

        ``left`` is ``(2, 1, k, n1, n1)``: the :func:`modmath.split_limbs`
        of the matrix the ``n1``-point phase multiplies from the left,
        shaped so that one ``np.matmul`` against an ``(m, k, n1, n2)``
        stack yields both limb sums as ``(2, m, k, n1, n2)``; ``right``
        is ``(2, 1, k, n2, n2)``, the limbs of the matrix the
        ``n2``-point phase multiplies from the right; ``twiddle`` is the
        ``(k, n1, n2)`` uint64 table of ``ψ`` powers between them.  The
        inverse negates every exponent and transposes both matrices (it
        runs the phases in the opposite order); its twiddle takes
        ``n^-1`` (and a scale) in :meth:`_inverse_finish`.
        """
        n = self.n
        left, twiddle, right = _four_step_exponents(n)
        if inverse:
            # ψ^-e is ψ^(2n - e).
            left, twiddle, right = (
                np.remainder(2 * n - e, 2 * n) for e in (left.T, twiddle, right)
            )
        else:
            right = right.T
        rows = np.stack([_psi_row(q, n) for q in self.moduli])
        return (
            modmath.split_limbs(rows[:, left])[:, None],
            modmath.split_limbs(rows[:, right])[:, None],
            rows[:, twiddle],
        )

    @cached_property
    def _four_step_forward(self):
        left, right, twiddle = self._four_step_tables(False)
        q = self._q_col.reshape(-1, 1, 1)
        return left, right, *_centred(twiddle, q)

    @cached_property
    def _four_step_inverse(self):
        return self._four_step_tables(True)

    @cached_property
    def _four_step_moduli(self) -> tuple[np.ndarray, np.ndarray]:
        """``q`` and ``1/q`` in float64, one per coefficient like
        ``_q`` (``q < 2^30`` is exact)."""
        q = self._q.astype(np.float64)  # fhelint: ok[dtype-routing] q < 2^30, exact
        return q, 1 / q

    def _four_step_pass(
        self, mat: np.ndarray, inverse: bool, scale: tuple[int, ...] | None = None
    ) -> np.ndarray:
        """The four-step kernel: two batched float64 matrix products,
        exact, with an int64 twiddle product between them.

        ``mat`` is seen as an ``(m, k, n1, n2)`` stack.  Forward runs
        the ``n1``-point phase (``left @ ·``, over ``j1``), the twiddle
        and the ``n2``-point phase (``· @ right``, over ``j2``); inverse
        runs them mirrored, with ``n^-1 · scale`` in its twiddle.  After
        each product :func:`modmath.limb_residue` recombines the two limb
        sums to a centred residue; :func:`modmath.mod_mul_centred`
        twiddles in place, and :func:`modmath.centred_fold` lands the
        result in ``[0, q)``.  Every value a float holds is an exact
        integer below 2^53 (the bounds are in :mod:`repro.nt.modmath`).
        The layout never changes: the per-prime tables broadcast over
        the leading ``m`` only, so every elementwise call runs over
        contiguous ``(k, n1, n2)`` blocks.
        """
        if inverse:
            left, right, _ = self._four_step_inverse
            w, w_over_q = self._inverse_finish(scale)
        else:
            left, right, w, w_over_q = self._four_step_forward
        q, q_inv = self._four_step_moduli
        x = mat.reshape(-1, *self._q.shape).astype(
            # fhelint: ok[dtype-routing] exact integers below 2^53 in any
            # summation order or BLAS thread count (modmath.split_limbs)
            np.float64
        )
        # Each float64 operand (several times the input) is dropped once
        # read; c is copied out of y's limb pair so that y can go.
        y = np.matmul(x, right) if inverse else np.matmul(left, x)
        del x
        c = modmath.limb_residue(y[0], y[1], q, q_inv).copy()
        del y
        modmath.mod_mul_centred(c, w, w_over_q, q, out=c)
        y = np.matmul(left, c) if inverse else np.matmul(c, right)
        del c
        r = modmath.limb_residue(y[0], y[1], q, q_inv)
        out = np.empty(r.shape, dtype=self._word)
        modmath.centred_fold(r, self._q, self._two_q, out)
        del y, r
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

    def _by_parts(
        self, kernel, mat: np.ndarray, overwrite: bool = False
    ) -> np.ndarray:
        """``kernel(self, mat)`` for an ``(m, k, n)`` stack, split evenly
        when it has to run in more than one part: each part's result is
        copied into its slice of one output, ``mat`` itself when
        ``overwrite`` (each part is read before its slice is written)."""
        parts = self.parts(len(mat))
        if parts == 1:
            return kernel(self, mat)
        out = mat if overwrite else np.empty(mat.shape, dtype=np.uint64)
        lo = 0
        for part in np.array_split(mat, parts):
            out[lo : lo + len(part)] = kernel(self, part)
            lo += len(part)
        return out

    def _twiddle_mul(self, x: np.ndarray, w, w_aux, out=None) -> np.ndarray:
        """``x`` times a stage's constants, lazily: congruent mod ``q``
        and in ``[0, 2q)`` for every ``x`` the stage loops carry — the
        one width-aware multiply.  uint32 (``x < 2^31``) takes the
        quotient from float64 (``w_aux`` is ``w/q``); uint64
        (``x < 2^63``) Shoup-multiplies at β = 2^62 from the companion's
        limbs (``w_aux``), whose ``[0, 4q)`` one fold by ``2q`` brings in.
        """
        if self._word is np.uint32:
            return modmath.mod_mul_float_lazy(x, w, w_aux, self._q, out)
        r = modmath.mod_mul_shoup62_lazy(x, w, w_aux, self._q)
        return modmath.lazy_fold(r, self._two_q, out=out)

    def forward(self, mat: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Coefficient -> NTT transform of a ``(k, n)`` matrix or stack
        (any leading axes run as one ``(m, k, n)`` stack), split stacks
        written over ``mat`` when ``overwrite`` (:func:`forward_rows`).

        Crosses the kernel boundary (:mod:`repro.backends`), which
        counts the call and lands back on :meth:`_forward_stages`.
        """
        if mat.ndim == 1:
            return self.forward(mat[None])[0]
        if mat.ndim > 3:
            stack = mat.reshape(-1, *mat.shape[-2:])
            return self.forward(stack, overwrite).reshape(mat.shape)
        self._check(mat)
        if mat.ndim == 3:
            return self._by_parts(_backends.ntt_forward, mat, overwrite)
        return _backends.ntt_forward(self, mat)

    def _forward_stages(self, mat: np.ndarray) -> np.ndarray:
        """The numpy forward kernel: :meth:`_four_step_pass` on a small
        ring, else the stage loop.

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
        for shape, w, w_aux in self._forward_plan:
            t //= 2
            if 2 * t == self._tail:
                a = self._tail_view(a).copy()
            blk = a.reshape(-1, *shape)
            u, v = blk[:, :, :, 0], blk[:, :, :, 1]
            x = modmath.lazy_fold(u, self._two_q)
            y = self._twiddle_mul(v, w, w_aux)
            np.add(x, y, out=u)
            np.subtract(x, y, out=y)
            np.add(y, self._two_q, out=v)
        modmath.lazy_fold(a, self._two_q, out=a)
        modmath.lazy_fold(a, self._q, out=a)
        return a.swapaxes(3, 4).astype(np.uint64, order="C").reshape(mat.shape)

    def inverse(
        self, mat: np.ndarray, scale: tuple[int, ...] | None = None
    ) -> np.ndarray:
        """NTT -> coefficient transform of a ``(k, n)`` matrix or stack
        (any leading axes run as one ``(m, k, n)`` stack), row ``i``
        times ``scale[i]`` (any integers; ``None`` reads as ones) and
        fully reduced.

        Crosses the kernel boundary (:mod:`repro.backends`), which
        counts the call and lands back on :meth:`_inverse_stages`.
        """
        if mat.ndim == 1:
            return self.inverse(mat[None], scale)[0]
        if mat.ndim > 3:
            flat = mat.reshape(-1, *mat.shape[-2:])
            return self.inverse(flat, scale).reshape(mat.shape)
        self._check(mat)
        if scale is not None and len(scale) != len(self.moduli):
            raise ParameterError(
                f"expected {len(self.moduli)} scale constants, got {len(scale)}"
            )
        if mat.ndim == 3:
            return self._by_parts(
                lambda ctx, part: _backends.ntt_inverse(ctx, part, scale), mat
            )
        return _backends.ntt_inverse(self, mat, scale)

    def _inverse_stages(
        self, mat: np.ndarray, scale: tuple[int, ...] | None = None
    ) -> np.ndarray:
        """The numpy inverse kernel: :meth:`_four_step_pass` on a small
        ring, else the stage loop; ``n^-1 · scale`` rides the constants
        of :meth:`_inverse_finish`.

        Gentleman–Sande DIF with the lazy butterfly mirrored: values
        stay in ``[0, 2q)``; the sum folds back from ``[0, 4q)``, the
        ``2q``-shifted difference (``< 4q``) goes through the twiddle
        product.  On uint32 (where ``n > 1024``: the last stage is one
        natural-order block per row) the last butterfly multiplies the
        sum by ``c`` instead of folding it, and the difference by
        ``w_1·c``; on uint64 ``c`` is one more constant multiply.  The
        one full reduction follows.
        """
        if self._four_step:
            return self._four_step_pass(mat, inverse=True, scale=scale)
        finish = self._inverse_finish(scale)
        merged = self._word is np.uint32
        stages = self._inverse_plan[::-1]
        a = self._tail_view(mat).astype(self._word, order="C")
        t = 1
        for i, (shape, w, w_aux) in enumerate(stages, 1):
            blk = a.reshape(-1, *shape)
            u, v = blk[:, :, :, 0], blk[:, :, :, 1]
            d = u - v
            d += self._two_q
            if merged and i == len(stages):
                (c, c_aux), (w, w_aux) = finish
                self._twiddle_mul(u + v, c, c_aux, out=u)
            else:
                modmath.lazy_fold(u + v, self._two_q, out=u)
            self._twiddle_mul(d, w, w_aux, out=v)
            if 2 * t == self._tail:
                a = a.swapaxes(3, 4).copy()
            t *= 2
        if not merged:
            ((c, c_aux),) = finish
            a = self._twiddle_mul(a.reshape(-1, len(self.moduli), 1, 1, self.n),
                                  c, c_aux)
        modmath.lazy_fold(a, self._q, out=a)
        return a.astype(np.uint64, copy=False).reshape(mat.shape)


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


def forward_rows(
    mat: np.ndarray, moduli: Sequence[int], overwrite: bool = False
) -> np.ndarray:
    """Forward NTT of every row of a ``(k, n)`` residue matrix — or of an
    ``(m, k, n)`` stack of matrices over the same moduli — at once.

    ``overwrite=True`` (as ``scipy.fft``'s ``overwrite_x``) lets a stack
    that runs in parts land in ``mat``'s own buffer instead of a second
    one the stack's size; the caller reads the returned array and not
    ``mat`` again."""
    if not isinstance(moduli, tuple):
        moduli = tuple(int(q) for q in moduli)
    out = ntt_rows_context(moduli, mat.shape[-1]).forward(mat, overwrite)
    if _obs.ACTIVE:
        # A lazy value that escaped the stage loop's one full reduction
        # is caught at the kernel boundary, in the output.
        checked = (("forward_rows output", out),)
        if not overwrite:
            checked = (("forward_rows input", mat),) + checked
        _obs.kernel("ntt.forward", mat.size, moduli, checked)
    return out


def inverse_rows(
    mat: np.ndarray, moduli: Sequence[int], scale: Sequence[int] | None = None
) -> np.ndarray:
    """Inverse NTT of every row of a ``(k, n)`` residue matrix — or of an
    ``(m, k, n)`` stack of matrices over the same moduli — at once.

    With ``scale`` (one integer per modulus) row ``i`` comes out times
    ``scale[i]``, fully reduced, at no extra pass: the constants ride
    the transform's ``n^-1`` and are built once per scale."""
    if not isinstance(moduli, tuple):
        moduli = tuple(int(q) for q in moduli)
    if scale is not None and not isinstance(scale, tuple):
        scale = tuple(int(s) for s in scale)
    out = ntt_rows_context(moduli, mat.shape[-1]).inverse(mat, scale)
    if _obs.ACTIVE:
        _obs.kernel("ntt.inverse", mat.size, moduli,
                    (("inverse_rows input", mat), ("inverse_rows output", out)))
    return out
