"""Reference tests for the stage-vectorized NTT and batched-row kernels.

Three layers of ground truth, per the PR acceptance criteria:

1. bit-exactness of the vectorized :class:`NttRowsContext` (``k = 1``,
   through :func:`ntt_context`) against the pre-vectorization per-block
   implementation preserved in :mod:`repro.nt.ntt_reference`;
2. correctness of ``negacyclic_multiply`` against an O(n^2) schoolbook
   product, on all three modulus backends;
3. ``forward_rows`` / ``inverse_rows`` batched over mixed-prime bases
   agree with the per-row transforms and round-trip exactly.

Plus the ``guard`` regression tests: the narrow/wide paths must stay
stage-vectorized — O(log n) kernel invocations per transform, never a
Python-level loop over butterfly blocks.
"""

from itertools import islice

import numpy as np
import pytest

import repro.backends as backends
from repro.nt import modmath
from repro.nt import ntt as ntt_mod
from repro.nt.ntt import (
    forward_rows,
    inverse_rows,
    ntt_context,
    ntt_rows_context,
)
from repro.nt.ntt_reference import reference_ntt_context, schoolbook_negacyclic
from repro.nt.primes import ntt_friendly_primes_below

MAX_N = 256  # largest degree exercised below; primes must support it

NARROW_Q = next(ntt_friendly_primes_below(1 << 28, MAX_N))
WIDE_Q = next(ntt_friendly_primes_below(1 << 55, MAX_N))
BIG_Q = next(ntt_friendly_primes_below(1 << 62, MAX_N))

BACKEND_PRIMES = [
    pytest.param(NARROW_Q, id="narrow"),
    pytest.param(WIDE_Q, id="wide"),
    pytest.param(BIG_Q, id="big"),
]

SIZES = [8, 64, 256]


def _random_residues(q, n, seed):
    rng = np.random.default_rng(seed)
    return modmath.uniform_mod(q, n, rng)


@pytest.mark.parametrize("q", BACKEND_PRIMES)
@pytest.mark.parametrize("n", SIZES)
class TestBitExactVsReference:
    """The vectorized transform must match the pre-PR code bit for bit."""

    def test_forward_matches_reference(self, q, n):
        a = _random_residues(q, n, seed=n)
        got = ntt_context(q, n).forward(a)
        want = reference_ntt_context(q, n).forward(a)
        assert [int(v) for v in got] == [int(v) for v in want]

    def test_inverse_matches_reference(self, q, n):
        a = _random_residues(q, n, seed=n + 1)
        got = ntt_context(q, n).inverse(a)
        want = reference_ntt_context(q, n).inverse(a)
        assert [int(v) for v in got] == [int(v) for v in want]

    def test_round_trip(self, q, n):
        a = _random_residues(q, n, seed=n + 2)
        ctx = ntt_context(q, n)
        back = ctx.inverse(ctx.forward(a))
        assert [int(v) for v in back] == [int(v) for v in a]


@pytest.mark.parametrize("q", BACKEND_PRIMES)
@pytest.mark.parametrize("n", SIZES)
def test_negacyclic_multiply_matches_schoolbook(q, n):
    rng = np.random.default_rng(n)
    a = [int(v) for v in rng.integers(0, min(q, 1 << 62), n)]
    b = [int(v) for v in rng.integers(0, min(q, 1 << 62), n)]
    a = [v % q for v in a]
    b = [v % q for v in b]
    ctx = ntt_context(q, n)
    got = ctx.negacyclic_multiply(
        modmath.as_mod_array(a, q), modmath.as_mod_array(b, q)
    )
    want = schoolbook_negacyclic(a, b, q, n)
    assert [int(v) for v in got] == want


class TestBatchedRows:
    """forward_rows / inverse_rows over stacked multi-prime matrices."""

    def _mixed_basis(self, n, narrow, wide):
        moduli = list(islice(ntt_friendly_primes_below(1 << 28, n), narrow))
        moduli += list(islice(ntt_friendly_primes_below(1 << 55, n), wide))
        return tuple(moduli)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize(
        "narrow,wide", [(4, 0), (0, 3), (3, 3)], ids=["narrow", "wide", "mixed"]
    )
    def test_round_trip_and_per_row_equivalence(self, n, narrow, wide):
        moduli = self._mixed_basis(n, narrow, wide)
        rng = np.random.default_rng(len(moduli) * n)
        mat = np.stack(
            [rng.integers(0, q, n, dtype=np.uint64) for q in moduli]
        )
        fwd = forward_rows(mat, moduli)
        # batched == per-row, bit for bit
        for i, q in enumerate(moduli):
            want = ntt_context(q, n).forward(mat[i])
            assert fwd[i].tolist() == want.tolist()
        back = inverse_rows(fwd, moduli)
        assert np.array_equal(back, mat)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize(
        "mix", [("big",), ("narrow", "big"), ("wide", "big", "big")],
        ids="+".join,
    )
    def test_big_rows_match_reference(self, n, mix):
        """One modulus >= 2^61 makes the whole stack object-dtype; every
        row still equals the pre-vectorization per-prime transform."""
        gens = {
            "narrow": ntt_friendly_primes_below(1 << 28, n),
            "wide": ntt_friendly_primes_below(1 << 55, n),
            "big": ntt_friendly_primes_below(1 << 62, n),
        }
        moduli = tuple(next(gens[kind]) for kind in mix)
        rng = np.random.default_rng(n)
        mat = np.empty((len(moduli), n), dtype=object)
        for i, q in enumerate(moduli):
            mat[i] = modmath.uniform_mod(q, n, rng)
        assert ntt_rows_context(moduli, n).kind == "big"
        fwd = forward_rows(mat, moduli)
        inv = inverse_rows(mat, moduli)
        assert fwd.dtype == inv.dtype == object
        for i, q in enumerate(moduli):
            ref = reference_ntt_context(q, n)
            row = modmath.as_mod_array(mat[i], q)
            assert fwd[i].tolist() == [int(v) for v in ref.forward(row)]
            assert inv[i].tolist() == [int(v) for v in ref.inverse(row)]
        assert np.array_equal(inverse_rows(fwd, moduli), mat)

    def test_context_cache_keyed_by_basis(self):
        moduli = self._mixed_basis(64, 2, 1)
        assert ntt_rows_context(moduli, 64) is ntt_rows_context(moduli, 64)


@pytest.mark.guard
class TestStageVectorizationGuard:
    """Regression guards: the hot path must stay O(log n) kernel calls.

    The guards pin the *numpy engine's* kernel shape (every transform
    dispatches through the registry, and under another backend the
    stage loops legitimately never run).

    A reintroduced Python loop over butterfly blocks would turn each
    stage into O(n / t) modmath calls; these tests pin the counts to the
    stage-vectorized shape so such a regression fails loudly.
    """

    N = 4096
    LOG_N = 12
    GUARD_NARROW_Q = next(ntt_friendly_primes_below(1 << 28, 4096))
    GUARD_WIDE_Q = next(ntt_friendly_primes_below(1 << 55, 4096))

    def test_forward_is_log_n_stage_kernels(self):
        ctx = ntt_context(self.GUARD_NARROW_Q, self.N)
        a = _random_residues(self.GUARD_NARROW_Q, self.N, seed=3)
        with backends.use("numpy"):
            before = dict(ntt_mod.STAGE_KERNEL_CALLS)
            ctx.forward(a)
            after = ntt_mod.STAGE_KERNEL_CALLS
        assert after["forward"] - before["forward"] == self.LOG_N

    def test_inverse_is_log_n_stage_kernels(self):
        ctx = ntt_context(self.GUARD_NARROW_Q, self.N)
        a = _random_residues(self.GUARD_NARROW_Q, self.N, seed=4)
        with backends.use("numpy"):
            before = dict(ntt_mod.STAGE_KERNEL_CALLS)
            ctx.inverse(a)
            after = ntt_mod.STAGE_KERNEL_CALLS
        assert after["inverse"] - before["inverse"] == self.LOG_N

    @pytest.mark.parametrize(
        "q", [GUARD_NARROW_Q, GUARD_WIDE_Q], ids=["narrow", "wide"]
    )
    def test_modmath_call_count_is_log_n(self, q, monkeypatch):
        """Count actual modmath invocations: O(log n), not O(n)."""
        counts = {"add": 0, "sub": 0}
        real_add, real_sub = modmath.mod_add, modmath.mod_sub

        def counting_add(*args, **kwargs):
            counts["add"] += 1
            return real_add(*args, **kwargs)

        def counting_sub(*args, **kwargs):
            counts["sub"] += 1
            return real_sub(*args, **kwargs)

        monkeypatch.setattr(ntt_mod.modmath, "mod_add", counting_add)
        monkeypatch.setattr(ntt_mod.modmath, "mod_sub", counting_sub)
        ctx = ntt_context(q, self.N)
        a = _random_residues(q, self.N, seed=5)
        with backends.use("numpy"):
            ctx.forward(a)
        # one add and one sub per stage — a per-block loop would make
        # this n/2 + n/4 + ... = n - 1 calls instead of log2(n)
        assert counts["add"] == self.LOG_N
        assert counts["sub"] == self.LOG_N

    def test_batched_rows_share_stage_kernels(self):
        moduli = tuple(islice(ntt_friendly_primes_below(1 << 28, self.N), 4))
        rng = np.random.default_rng(6)
        mat = np.stack(
            [rng.integers(0, q, self.N, dtype=np.uint64) for q in moduli]
        )
        with backends.use("numpy"):
            before = dict(ntt_mod.STAGE_KERNEL_CALLS)
            forward_rows(mat, moduli)
            after = ntt_mod.STAGE_KERNEL_CALLS
        # all k rows ride the same log2(n) stage kernels
        assert after["forward"] - before["forward"] == self.LOG_N
