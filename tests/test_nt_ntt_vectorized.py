"""Reference tests for the stage-vectorized NTT and batched-row kernels.

Three layers of ground truth, per the PR acceptance criteria:

1. bit-exactness of the vectorized :class:`NttRowsContext` (``k = 1``,
   through :func:`ntt_context`) against the pre-vectorization per-block
   implementation preserved in :mod:`repro.nt.ntt_reference`;
2. correctness of ``negacyclic_multiply`` against an O(n^2) schoolbook
   product, on all three modulus backends;
3. ``forward_rows`` / ``inverse_rows`` batched over mixed-prime bases
   agree with the per-row transforms and round-trip exactly.

Plus a hypothesis sweep of the lazy butterfly over every width class
and every ``n`` (the ones smaller than the transposed tail block
included), known-answer digests recorded before the rewrite
(``tests/data/ntt_kat.json``), and the ``guard`` regression tests: the
machine-word paths must stay stage-vectorized — O(log n) kernel
invocations per transform, never a Python-level loop over butterfly
blocks.
"""

import hashlib
import json
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.nt.primes import ntt_friendly_primes_above, ntt_friendly_primes_below

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


@pytest.fixture
def stages(monkeypatch):
    """``stages(direction, fn)``: butterfly stages ``fn`` ran, counted by
    wrapping ``NttRowsContext._twiddle_mul`` — one call per forward
    stage, one per inverse stage plus one for the ``n^-1`` scale."""
    calls = []
    real = ntt_mod.NttRowsContext._twiddle_mul

    def counted(self, *args, **kwargs):
        calls.append(None)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ntt_mod.NttRowsContext, "_twiddle_mul", counted)

    def run(direction, fn):
        before = len(calls)
        fn()
        return len(calls) - before - (direction == "inverse")

    return run


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

    def test_degree_one_ring_is_the_identity(self):
        """``n = 1`` has no butterfly stage (and no tail layout to enter):
        both directions hand back a copy of the residues."""
        moduli = (17, (1 << 32) + 15, (1 << 61) + 21)
        mat = np.empty((3, 1), dtype=object)
        mat[:, 0] = [5, 1 << 32, 1 << 61]
        for transform in (forward_rows, inverse_rows):
            out = transform(mat, moduli)
            assert out is not mat and out.tolist() == mat.tolist()
        narrow = np.array([[5]], dtype=np.uint64)
        assert forward_rows(narrow, (17,)).tolist() == [[5]]
        assert inverse_rows(narrow, (17,)).tolist() == [[5]]

    def test_context_cache_keyed_by_basis(self):
        moduli = self._mixed_basis(64, 2, 1)
        assert ntt_rows_context(moduli, 64) is ntt_rows_context(moduli, 64)


# ----------------------------------------------------------------------
# Width classes: one prime generator per regime of the stage loop — the
# uint32 word up to its 4q <= 2^32 edge, narrow primes past it (uint64
# word, beta = 2^64), both ends of the wide range, and object rows.
# ----------------------------------------------------------------------
WIDTH_CLASSES = {
    "smallest": lambda n: ntt_friendly_primes_above(2, n),
    "20": lambda n: ntt_friendly_primes_below(1 << 20, n),
    "28": lambda n: ntt_friendly_primes_below(1 << 28, n),
    "below30": lambda n: ntt_friendly_primes_below(1 << 30, n),
    "30to31": lambda n: ntt_friendly_primes_above(1 << 30, n),
    "above31": lambda n: ntt_friendly_primes_above(1 << 31, n),
    "55": lambda n: ntt_friendly_primes_below(1 << 55, n),
    "below61": lambda n: ntt_friendly_primes_below(1 << 61, n),
    "big": lambda n: ntt_friendly_primes_below(1 << 62, n),
}


def _class_primes(width: str, n: int, count: int) -> tuple[int, ...]:
    return tuple(islice(WIDTH_CLASSES[width](n), count))


def _mixed_moduli(widths, n: int) -> tuple[int, ...]:
    """One prime per entry of ``widths``; the i-th row of a class takes
    that class's i-th prime, so the moduli of one stack are distinct."""
    return tuple(
        _class_primes(w, n, widths[: i + 1].count(w))[-1]
        for i, w in enumerate(widths)
    )


def _residue_matrix(rows, moduli):
    """Rows of Python ints as the matrix dtype the basis runs on."""
    mat = np.empty(
        (len(moduli), len(rows[0])), dtype=modmath.dtype_for_modulus(max(moduli))
    )
    for i, row in enumerate(rows):
        mat[i] = row
    return mat


class TestLazyButterflyProperty:
    """Every row of the batched transforms equals the pre-vectorization
    per-prime reference, at every ``n`` and every mix of widths."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_reference_and_round_trip(self, data):
        n = 1 << data.draw(st.integers(1, 13), label="log2 n")
        k = data.draw(st.integers(1, 6), label="k")
        widths = data.draw(
            st.lists(st.sampled_from(sorted(WIDTH_CLASSES)), min_size=k, max_size=k),
            label="widths",
        )
        moduli = _mixed_moduli(widths, n)
        fill = data.draw(st.sampled_from(["random", "q-1", "zero"]), label="fill")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        rows = [
            {
                "random": lambda q: [int(v) for v in modmath.uniform_mod(q, n, rng)],
                "q-1": lambda q: [q - 1] * n,
                "zero": lambda q: [0] * n,
            }[fill](q)
            for q in moduli
        ]
        mat = _residue_matrix(rows, moduli)
        keep = mat.copy()
        fwd = forward_rows(mat, moduli)
        inv = inverse_rows(mat, moduli)
        assert np.array_equal(mat, keep)  # kernels are pure
        assert fwd.dtype == inv.dtype == mat.dtype
        for i, q in enumerate(moduli):
            ref = reference_ntt_context(q, n)
            row = modmath.as_mod_array(rows[i], q)
            assert fwd[i].tolist() == [int(v) for v in ref.forward(row)]
            assert inv[i].tolist() == [int(v) for v in ref.inverse(row)]
        assert np.array_equal(inverse_rows(fwd, moduli), mat)


# ----------------------------------------------------------------------
# Known-answer vectors (ROADMAP item 4): sha256 of a fixed input and of
# its forward / inverse transform per width class, recorded at the
# commit *before* the lazy butterfly landed.  Inputs come from a 64-bit
# LCG over Python ints, so nothing here depends on a numpy generator.
# Re-record (only when the transform's definition changes, never to
# make a kernel change pass) with
#   PYTHONPATH=src python -c \
#     "import tests.test_nt_ntt_vectorized as t; t.record_kat()"
# ----------------------------------------------------------------------
KAT_PATH = Path(__file__).parent / "data" / "ntt_kat.json"
KAT_SIZES = (128, 4096)


def _kat_input(q: int, n: int, salt: int = 0) -> list[int]:
    state = (q * 0x9E3779B97F4A7C15 + n + (salt << 32)) % (1 << 64)
    out = []
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append(state % q)
    return out


def _digest(values) -> str:
    return hashlib.sha256(
        b"".join(int(v).to_bytes(8, "little") for v in values)
    ).hexdigest()


def _kat_entry(width: str, n: int) -> dict:
    (q,) = _class_primes(width, n, 1)
    coeffs = _kat_input(q, n)
    row = modmath.as_mod_array(coeffs, q)
    ctx = ntt_context(q, n)
    return {
        "width": width,
        "n": n,
        "q": q,
        "input": _digest(coeffs),
        "forward": _digest(ctx.forward(row)),
        "inverse": _digest(ctx.inverse(row)),
    }


def record_kat() -> None:
    entries = [_kat_entry(w, n) for n in KAT_SIZES for w in WIDTH_CLASSES]
    KAT_PATH.parent.mkdir(exist_ok=True)
    KAT_PATH.write_text(json.dumps(entries, indent=1) + "\n")


@pytest.mark.parametrize(
    "entry",
    json.loads(KAT_PATH.read_text()),
    ids=lambda e: f"{e['width']}-{e['n']}",
)
def test_known_answer_vectors(entry):
    assert _kat_entry(entry["width"], entry["n"]) == entry


# ----------------------------------------------------------------------
# Stacks of sibling matrices: ``(m, k, n)`` in, ``(m, k, n)`` out, each
# matrix transformed exactly as it would be alone.
# ----------------------------------------------------------------------
STACK_MIXES = {
    "uint32-word": ("28", "20", "below30"),
    "uint64-word-narrow": ("28", "30to31"),
    "wide": ("55", "above31", "below61"),
    "narrow+wide": ("28", "55"),
    "big": ("28", "55", "big"),
}


# One id per engine ``available_backends()`` names: the ids are pinned
# by the tier-1 floor, and a re-admitted engine would show up here.
@pytest.mark.parametrize("engine", backends.available_backends())
class TestStackedMatrices:
    @pytest.mark.parametrize("mix", list(STACK_MIXES))
    @pytest.mark.parametrize("n", [8, 128])
    def test_stack_equals_separate_calls(self, engine, mix, n):
        moduli = _mixed_moduli(STACK_MIXES[mix], n)
        rng = np.random.default_rng(n)
        stack = np.stack(
            [
                _residue_matrix(
                    [[int(v) for v in modmath.uniform_mod(q, n, rng)] for q in moduli],
                    moduli,
                )
                for _ in range(5)
            ]
        )
        keep = stack.copy()
        for transform in (forward_rows, inverse_rows):
            got = transform(stack, moduli)
            assert got.shape == stack.shape and got.dtype == stack.dtype
            for sub, mat in zip(got, stack):
                assert np.array_equal(sub, transform(mat, moduli))
        assert np.array_equal(
            inverse_rows(forward_rows(stack, moduli), moduli), stack
        )
        assert np.array_equal(stack, keep)  # kernels are pure

    @pytest.mark.parametrize(
        "entry",
        json.loads(KAT_PATH.read_text()),
        ids=lambda e: f"{e['width']}-{e['n']}",
    )
    def test_stack_reproduces_known_answer_vectors(self, engine, entry):
        """The recorded digests, read off the middle of a stack whose
        other members are different polynomials."""
        q, n = entry["q"], entry["n"]
        row = modmath.as_mod_array(_kat_input(q, n), q)
        stack = np.stack([row[::-1], row, np.zeros_like(row)])[:, None]
        assert _digest(forward_rows(stack, (q,))[1, 0]) == entry["forward"]
        assert _digest(inverse_rows(stack, (q,))[1, 0]) == entry["inverse"]

    def test_oversized_stack_runs_in_parts(self, engine, monkeypatch, stages):
        """A stack past the cache budget is split, not refused: same
        residues, more than one pass of stage kernels."""
        n, moduli = 128, _class_primes("28", 128, 4)
        rng = np.random.default_rng(9)
        stack = rng.integers(0, min(moduli), (6, 4, n), dtype=np.uint64)
        want = forward_rows(stack, moduli)
        one = 4 * n * 4  # a (4, 128) matrix in the uint32 word
        monkeypatch.setattr(ntt_mod, "_STACK_BYTES", 2 * one)
        passes = stages(
            "forward",
            lambda: np.testing.assert_array_equal(forward_rows(stack, moduli), want),
        ) // 7
        assert passes == 3  # 6 matrices, 2 to a part


@pytest.mark.guard
class TestStageVectorizationGuard:
    """Regression guards: the hot path must stay O(log n) kernel calls.

    A reintroduced Python loop over butterfly blocks would turn each
    stage into O(n / t) calls; these tests pin the counts to the
    stage-vectorized shape so such a regression fails loudly.
    """

    N = 4096
    LOG_N = 12
    GUARD_NARROW_Q = next(ntt_friendly_primes_below(1 << 28, 4096))
    GUARD_WIDE_Q = next(ntt_friendly_primes_below(1 << 55, 4096))

    def test_forward_is_log_n_stage_kernels(self, stages):
        ctx = ntt_context(self.GUARD_NARROW_Q, self.N)
        a = _random_residues(self.GUARD_NARROW_Q, self.N, seed=3)
        assert stages("forward", lambda: ctx.forward(a)) == self.LOG_N

    def test_inverse_is_log_n_stage_kernels(self, stages):
        ctx = ntt_context(self.GUARD_NARROW_Q, self.N)
        a = _random_residues(self.GUARD_NARROW_Q, self.N, seed=4)
        assert stages("inverse", lambda: ctx.inverse(a)) == self.LOG_N

    @staticmethod
    def _profile_events(fn) -> int:
        """Function calls made by ``repro`` code while ``fn`` runs: its
        own functions entered, and the C methods/builtins it calls.
        (Frames of any other file are whatever a garbage collection that
        lands inside the window happens to run, e.g. hypothesis's
        ``gc.callbacks`` hook.  A ufunc call raises no profile event;
        every butterfly reaches its ufuncs through ``modmath`` functions
        and array methods, which do.)"""
        package = str(Path(ntt_mod.__file__).parents[1])
        events = []

        def profiler(frame, event, arg):
            if event in ("call", "c_call") and frame.f_code.co_filename.startswith(
                package
            ):
                events.append(event)

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return len(events)

    @pytest.mark.parametrize("bits", [28, 55], ids=["narrow", "wide"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_call_count_is_c_log_n(self, bits, direction):
        """Function calls per transform are ``c0 + c * log2 n`` with
        ``c0`` and ``c`` independent of ``n`` and of ``k``: each stage
        is a fixed handful of numpy calls whatever the matrix holds, and
        a per-block loop (O(n) calls) cannot hide in any of them."""
        counts = {}
        for k in (1, 4):
            for log_n in (8, 10, 12):
                n = 1 << log_n
                moduli = tuple(islice(ntt_friendly_primes_below(1 << bits, n), k))
                mat = np.zeros((k, n), dtype=np.uint64)
                transform = getattr(ntt_rows_context(moduli, n), direction)
                transform(mat)  # build the tables
                counts[k, log_n] = self._profile_events(lambda: transform(mat))
        per_stage = (counts[1, 12] - counts[1, 8]) // 4
        assert 0 < per_stage <= 40
        for k in (1, 4):
            assert counts[k, 10] - counts[k, 8] == 2 * per_stage
            assert counts[k, 12] - counts[k, 10] == 2 * per_stage
            assert counts[k, 8] == counts[1, 8]

    def test_batched_rows_share_stage_kernels(self, stages):
        moduli = tuple(islice(ntt_friendly_primes_below(1 << 28, self.N), 4))
        rng = np.random.default_rng(6)
        mat = np.stack(
            [rng.integers(0, q, self.N, dtype=np.uint64) for q in moduli]
        )
        # all k rows ride the same log2(n) stage kernels
        assert stages("forward", lambda: forward_rows(mat, moduli)) == self.LOG_N

    def test_stacked_siblings_share_stage_kernels(self, stages):
        """A stack that fits the cache budget is one pass: ``log2 n``
        stage kernels for all ``m`` matrices, not ``m`` times that."""
        n, log_n = 128, 7
        moduli = tuple(islice(ntt_friendly_primes_below(1 << 28, n), 46))
        stack = np.random.default_rng(7).integers(
            0, min(moduli), (4, 46, n), dtype=np.uint64
        )
        for direction, transform in (
            ("forward", forward_rows), ("inverse", inverse_rows)
        ):
            assert stages(direction, lambda: transform(stack, moduli)) == log_n
