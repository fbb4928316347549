"""Reference tests for the stage-vectorized NTT and batched-row kernels.

Three layers of ground truth, per the PR acceptance criteria:

1. bit-exactness of the vectorized :class:`NttRowsContext` (``k = 1``,
   through :func:`ntt_context`) against the pre-vectorization per-block
   implementation in :mod:`tests.oracles.ntt_reference`;
2. correctness of the transform product (forward, pointwise multiply,
   inverse) against an O(n^2) schoolbook product, on both word classes;
3. ``forward_rows`` / ``inverse_rows`` batched over mixed-prime bases
   agree with the per-row transforms and round-trip exactly.

Plus a hypothesis sweep of the lazy butterfly over every width class
and every ``n`` (the ones smaller than the transposed tail block
included), known-answer digests recorded before the rewrite
(``tests/data/ntt_kat.json``), the four-step kernel of small uint32
rings at its edges, and the ``guard`` regression tests: the stage loop
must stay stage-vectorized — O(log n) kernel invocations per
transform, never a Python-level loop over butterfly blocks — and the
four-step kernel a fixed number of calls whatever n and k.
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
from repro.errors import ParameterError
from repro.nt import modmath
from repro.nt import ntt as ntt_mod
from repro.nt.ntt import (
    forward_rows,
    inverse_rows,
    ntt_context,
    ntt_rows_context,
)
from repro.nt.primes import ntt_friendly_primes_above, ntt_friendly_primes_below
from tests.conftest import ntt_product
from tests.oracles.ntt_reference import reference_ntt_context, schoolbook_negacyclic

MAX_N = 256  # largest degree exercised below; primes must support it

NARROW_Q = next(ntt_friendly_primes_below(1 << 28, MAX_N))
WIDE_Q = next(ntt_friendly_primes_below(1 << 55, MAX_N))

BACKEND_PRIMES = [
    pytest.param(NARROW_Q, id="narrow"),
    pytest.param(WIDE_Q, id="wide"),
]

SIZES = [8, 64, 256]


def _count_calls(monkeypatch, method: str) -> list:
    """Wrap ``NttRowsContext.<method>``: the returned list grows by one
    per call."""
    calls = []
    real = getattr(ntt_mod.NttRowsContext, method)

    def counted(self, *args, **kwargs):
        calls.append(None)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ntt_mod.NttRowsContext, method, counted)
    return calls


@pytest.fixture
def stages(monkeypatch):
    """``stages(direction, fn)``: butterfly stages ``fn`` ran, counted by
    wrapping ``NttRowsContext._twiddle_mul`` — one call per forward
    stage, one per inverse stage plus one for the ``n^-1`` scale (on
    uint32 the merged last stage multiplies its sum by ``n^-1``, on
    uint64 one multiply follows the last stage)."""
    calls = _count_calls(monkeypatch, "_twiddle_mul")

    def run(direction, fn):
        before = len(calls)
        fn()
        return len(calls) - before - (direction == "inverse")

    return run


@pytest.fixture
def four_step_passes(monkeypatch):
    """``four_step_passes(fn)``: four-step kernel passes ``fn`` ran."""
    calls = _count_calls(monkeypatch, "_four_step_pass")

    def run(fn):
        before = len(calls)
        fn()
        return len(calls) - before

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
    assert ntt_product(a, b, q, n) == schoolbook_negacyclic(a, b, q, n)


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

    def test_degree_one_ring_is_the_identity(self):
        """``n = 1`` has no butterfly stage (and no tail layout to enter):
        both directions hand back a copy of the residues."""
        moduli = (17, (1 << 32) + 15, (1 << 61) - 1)
        mat = np.array([[5], [1 << 32], [(1 << 61) - 2]], dtype=np.uint64)
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
# uint32 word up to its 4q <= 2^31 edge, narrow primes past it (uint64
# word, beta = 2^62; below 2^30 they still run the four-step kernel at
# n <= 1024), and both ends of the wide range.
# ----------------------------------------------------------------------
WIDTH_CLASSES = {
    "smallest": lambda n: ntt_friendly_primes_above(2, n),
    "20": lambda n: ntt_friendly_primes_below(1 << 20, n),
    "28": lambda n: ntt_friendly_primes_below(1 << 28, n),
    "below29": lambda n: ntt_friendly_primes_below(1 << 29, n),
    "below30": lambda n: ntt_friendly_primes_below(1 << 30, n),
    "30to31": lambda n: ntt_friendly_primes_above(1 << 30, n),
    "above31": lambda n: ntt_friendly_primes_above(1 << 31, n),
    "55": lambda n: ntt_friendly_primes_below(1 << 55, n),
    "below61": lambda n: ntt_friendly_primes_below(1 << 61, n),
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


def _residue_matrix(rows):
    """Rows of Python ints as a uint64 residue matrix."""
    return np.array(rows, dtype=np.uint64)


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
        mat = _residue_matrix(rows)
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
# The four-step kernel (uint32 word, n <= 1024) at its edges: every
# degree it runs, the largest primes of its word and the smallest the
# degree allows, both input shapes, and inputs built so its twiddle
# product's float quotient estimate lands on a rint tie.
# ----------------------------------------------------------------------
GATED_N = [1 << e for e in range(11)]
EDGE_PRIMES = {
    # Just below 2^30: the top of the uint32 word.
    "below30": lambda n: ntt_friendly_primes_below(1 << 30, max(n, 2)),
    # The smallest above 2^11: 12-bit up to n = 128 (the bootstrap chain
    # has such primes), the next NTT-friendly ones beyond.
    "above2^11": lambda n: ntt_friendly_primes_above(1 << 11, max(n, 2)),
}


def _edge_moduli(kind: str, n: int, k: int = 2) -> tuple[int, ...]:
    return tuple(islice(EDGE_PRIMES[kind](n), k))


def _reference_rows(stack, moduli, n, direction):
    return [
        [
            [int(v) for v in getattr(reference_ntt_context(q, n), direction)(mat[i])]
            for i, q in enumerate(moduli)
        ]
        for mat in stack
    ]


def _inverse_mod(a: list[list[int]], q: int) -> list[list[int]]:
    """The inverse of a square matrix mod the prime ``q`` (Gauss–Jordan)."""
    size = len(a)
    aug = [row[:] + [int(i == j) for j in range(size)] for i, row in enumerate(a)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] % q)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = modmath.mod_inv(aug[col][col], q)
        aug[col] = [v * inv % q for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * p) % q for v, p in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def _matmul_mod(a, b, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def _tie_input(ctx, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """A ``(k, n)`` input whose first phase hands the twiddle product
    ``c`` with ``c·w ≡ (q ± 1)/2`` at every position, so ``c·w/q`` is
    ``1/(2q)`` from a half-integer; and the float estimates
    ``c·(w/q)`` the kernel forms from it."""
    k, n = len(ctx.moduli), ctx.n
    n1 = 1 << (n.bit_length() // 2)
    n2 = n // n1
    if inverse:
        left, right, _ = ctx._four_step_inverse
        w, w_over_q = ctx._inverse_finish(None)  # the twiddle times n^-1
    else:
        left, right, w, w_over_q = ctx._four_step_forward
    # The first phase's matrix, limbs recombined: left @ (j1, j2) forward,
    # (i1, i2) @ right inverse.
    lo, hi = (right if inverse else left)[:, 0]
    first = (lo + hi * (1 << modmath.LIMB_BITS)).astype(np.int64)
    out = np.empty((k, n), dtype=np.uint64)
    estimates = np.empty((k, n1, n2))
    for i, q in enumerate(ctx.moduli):
        c = [
            [(q + (-1) ** (a + b)) // 2 * modmath.mod_inv(int(w[i, a, b]), q) % q
             for b in range(n2)]
            for a in range(n1)
        ]
        m = first[i].tolist()
        x = (_matmul_mod(c, _inverse_mod(m, q), q) if inverse
             else _matmul_mod(_inverse_mod(m, q), c, q))
        out[i] = np.array(x, dtype=np.uint64).reshape(n)
        centred = np.array([[v - q if v > q // 2 else v for v in row] for row in c])
        estimates[i] = centred * w_over_q[i]
    return out, estimates


class TestFourStepEdges:
    @pytest.mark.parametrize("fill", ["random", "q-1", "zero"])
    @pytest.mark.parametrize("kind", list(EDGE_PRIMES))
    @pytest.mark.parametrize("n", GATED_N)
    def test_rows_match_reference(self, n, kind, fill):
        moduli = _edge_moduli(kind, n)
        assert ntt_rows_context(moduli, n)._four_step
        rng = np.random.default_rng(n)
        stack = np.stack([
            np.stack([
                {"random": lambda q: rng.integers(0, q, n, dtype=np.uint64),
                 "q-1": lambda q: np.full(n, q - 1, dtype=np.uint64),
                 "zero": lambda q: np.zeros(n, dtype=np.uint64)}[fill](q)
                for q in moduli
            ])
            for _ in range(3)
        ])
        for transform, direction in (
            (forward_rows, "forward"), (inverse_rows, "inverse")
        ):
            got = transform(stack, moduli)
            assert got.tolist() == _reference_rows(stack, moduli, n, direction)
            assert np.array_equal(transform(stack[1], moduli), got[1])
        assert np.array_equal(inverse_rows(forward_rows(stack, moduli), moduli), stack)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("kind", list(EDGE_PRIMES))
    @pytest.mark.parametrize("n", GATED_N[1:])
    def test_twiddle_quotient_ties(self, n, kind, direction):
        moduli = _edge_moduli(kind, n)
        ctx = ntt_rows_context(moduli, n)
        mat, estimates = _tie_input(ctx, direction == "inverse")
        if max(moduli) > 1 << 24 and n >= 4:
            # Products near q^2/2 are coarse enough in float64 that the
            # estimate lands on the half-integer itself.
            assert (estimates - np.floor(estimates) == 0.5).any()
        other = np.random.default_rng(n).integers(0, min(moduli), mat.shape,
                                                  dtype=np.uint64)
        stack = np.stack([mat, other])
        transform = forward_rows if direction == "forward" else inverse_rows
        got = transform(stack, moduli)
        assert got.tolist() == _reference_rows(stack, moduli, n, direction)
        assert np.array_equal(transform(mat, moduli), got[0])


@pytest.mark.parametrize(
    "widths,n,four_step",
    [
        (("28",), 2, True),
        (("28", "below30", "20"), 128, True),
        (("smallest",), 1024, True),
        (("28",), 2048, False),
        (("30to31",), 128, False),
        (("28", "55"), 128, False),
        (("55",), 1024, False),
        (("below61",), 128, False),
    ],
)
def test_kernel_is_chosen_by_word_and_degree(
    widths, n, four_step, stages, four_step_passes
):
    """The four-step kernel runs exactly where the stack's word is
    uint32 (every modulus below 2^30) and ``n <= 1024``; everywhere
    else the stage loop does, as before."""
    moduli = _mixed_moduli(widths, n)
    ctx = ntt_rows_context(moduli, n)
    assert ctx._four_step == four_step
    mat = np.zeros((len(moduli), n), dtype=np.uint64)
    ran_stages = stages("forward", lambda: forward_rows(mat, moduli))
    assert four_step_passes(lambda: forward_rows(mat, moduli)) == int(four_step)
    assert ran_stages == (0 if four_step else n.bit_length() - 1)


# ----------------------------------------------------------------------
# Known-answer vectors (the kernel-engine re-entry contract, DESIGN.md
# Sec. 10): sha256 of a fixed input and of its forward / inverse
# transform per width class, recorded at the commit *before* the lazy
# butterfly landed.  Inputs come from a 64-bit
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


@pytest.mark.parametrize(
    "width, word",
    [("28", np.uint32), ("below29", np.uint32), ("below30", np.uint64),
     ("30to31", np.uint64)],
)
def test_stage_loop_word_is_fixed_by_4q(width, word):
    """Above the four-step gate the stage loop runs in uint32 exactly
    where ``4q <= 2^31`` (the float-quotient multiply reads values below
    ``4q`` as int32); primes in ``[2^29, 2^31)`` run the uint64 loop.
    Both agree with the reference."""
    n = 2048
    moduli = _class_primes(width, n, 2)
    ctx = ntt_rows_context(moduli, n)
    assert not ctx._four_step
    assert ctx._word is word
    assert (4 * max(moduli) <= 1 << 31) == (word is np.uint32)
    mat = np.stack([_random_residues(q, n, seed=q % 97) for q in moduli])
    for direction in ("forward", "inverse"):
        got = getattr(ctx, direction)(mat)
        for i, q in enumerate(moduli):
            want = getattr(reference_ntt_context(q, n), direction)(mat[i])
            assert got[i].tolist() == [int(v) for v in want]


# ----------------------------------------------------------------------
# The scaled inverse: ``inverse_rows(m, moduli, scale=c)`` is the inverse
# times ``c_i`` per row, fully reduced, on each of the three kernels.
# ----------------------------------------------------------------------
SCALED_CASES = {
    # uint32 stage loop: the scale rides the merged last butterfly.
    "uint32-stages": (("28", "below29", "20"), 2048),
    # uint64 stage loop: the scale rides the one constant multiply.
    "uint64-stages": (("55", "below30", "28"), 256),
    # four-step: the scale rides the inverse twiddle table.
    "four-step": (("28", "below30", "smallest"), 128),
}


class TestScaledInverse:
    @staticmethod
    def _case(case):
        widths, n = SCALED_CASES[case]
        moduli = _mixed_moduli(widths, n)
        ctx = ntt_rows_context(moduli, n)
        kernel = ("four-step" if ctx._four_step
                  else f"{np.dtype(ctx._word).name}-stages")
        assert kernel == case
        return moduli, n, ctx

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(sorted(SCALED_CASES)), data=st.data())
    def test_scale_is_a_rowwise_multiply(self, case, data):
        moduli, n, ctx = self._case(case)
        scale = tuple(
            data.draw(st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1))
            for q in moduli
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.sampled_from([None, 1, 3]))
        shape = (len(moduli), n) if m is None else (m, len(moduli), n)
        mat = np.stack(
            [rng.integers(0, q, shape[:-2] + (n,), dtype=np.uint64)
             for q in moduli],
            axis=-2,
        )
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        c_col = np.array(scale, dtype=np.uint64).reshape(-1, 1)
        want = modmath.mod_mul(inverse_rows(mat, moduli), c_col, q_col)
        assert np.array_equal(inverse_rows(mat, moduli, scale=scale), want)

    @pytest.mark.parametrize("case", sorted(SCALED_CASES))
    def test_any_integer_scale_and_cached_constants(self, case):
        """A scale is any integers (reduced per row), its constants are
        built once per context and scale, and ``None`` is the plain
        inverse."""
        moduli, n, ctx = self._case(case)
        mat = np.stack([_random_residues(q, n, seed=5) for q in moduli])
        scale = (-1, 1 << 70, 0)
        reduced = tuple(s % q for s, q in zip(scale, moduli))
        got = inverse_rows(mat, moduli, scale=scale)
        assert np.array_equal(got, inverse_rows(mat, moduli, scale=list(reduced)))
        plain = inverse_rows(mat, moduli)
        assert got[0].tolist() == [(-int(v)) % moduli[0] for v in plain[0]]
        assert np.array_equal(inverse_rows(mat, moduli, scale=None), plain)
        assert ctx._inverse_finish(scale) is ctx._inverse_finish(scale)
        with pytest.raises(ParameterError, match="scale constants"):
            ctx.inverse(mat, (1,))


# ----------------------------------------------------------------------
# Stacks of sibling matrices: ``(m, k, n)`` in, ``(m, k, n)`` out, each
# matrix transformed exactly as it would be alone.
# ----------------------------------------------------------------------
STACK_MIXES = {
    "uint32-word": ("28", "20", "below30"),
    "uint64-word-narrow": ("28", "30to31"),
    "wide": ("55", "above31", "below61"),
    "narrow+wide": ("28", "55"),
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
                    [[int(v) for v in modmath.uniform_mod(q, n, rng)] for q in moduli]
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
        residues, more than one pass of stage kernels (n = 2048, above
        the four-step gate)."""
        n, moduli = 2048, _class_primes("28", 2048, 4)
        rng = np.random.default_rng(9)
        stack = rng.integers(0, min(moduli), (6, 4, n), dtype=np.uint64)
        want = forward_rows(stack, moduli)
        one = 4 * n * 4  # a (4, 2048) matrix in the uint32 word
        monkeypatch.setattr(ntt_mod, "_STACK_BYTES", 2 * one)
        passes = stages(
            "forward",
            lambda: np.testing.assert_array_equal(forward_rows(stack, moduli), want),
        ) // 11
        assert passes == 3  # 6 matrices, 2 to a part
        # Each part's inverse writes into its slice of the one output.
        np.testing.assert_array_equal(inverse_rows(want, moduli), stack)

    def test_oversized_stack_runs_in_parts_below_the_gate(
        self, engine, monkeypatch, four_step_passes
    ):
        """The four-step kernel splits a stack by the same budget."""
        n, moduli = 128, _class_primes("28", 128, 4)
        rng = np.random.default_rng(9)
        stack = rng.integers(0, min(moduli), (6, 4, n), dtype=np.uint64)
        want = forward_rows(stack, moduli)
        monkeypatch.setattr(ntt_mod, "_STACK_BYTES", 2 * 4 * n * 4)
        passes = four_step_passes(
            lambda: np.testing.assert_array_equal(forward_rows(stack, moduli), want)
        )
        assert passes == 3
        np.testing.assert_array_equal(inverse_rows(want, moduli), stack)
        # overwrite=True lands the parts in the input's own buffer,
        # through any leading axes.
        buf = stack.reshape(2, 3, 4, n).copy()
        got = forward_rows(buf, moduli, overwrite=True)
        assert got.shape == buf.shape and np.shares_memory(got, buf)
        np.testing.assert_array_equal(got.reshape(stack.shape), want)


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
        a per-block loop (O(n) calls) cannot hide in any of them.  The
        degrees sit above the four-step gate, where the narrow word runs
        the stage loop too."""
        counts = {}
        for k in (1, 4):
            for log_n in (11, 13, 15):
                n = 1 << log_n
                moduli = tuple(islice(ntt_friendly_primes_below(1 << bits, n), k))
                mat = np.zeros((k, n), dtype=np.uint64)
                transform = getattr(ntt_rows_context(moduli, n), direction)
                transform(mat)  # build the tables
                counts[k, log_n] = self._profile_events(lambda: transform(mat))
        per_stage = (counts[1, 15] - counts[1, 11]) // 4
        assert 0 < per_stage <= 40
        for k in (1, 4):
            assert counts[k, 13] - counts[k, 11] == 2 * per_stage
            assert counts[k, 15] - counts[k, 13] == 2 * per_stage
            assert counts[k, 11] == counts[1, 11]

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    def test_four_step_call_count_is_constant(self, direction, stacked):
        """Below the gate a transform makes the same function calls
        whatever ``n`` and ``k``: two matrix products and a fixed run of
        elementwise calls, with no loop over stages, blocks or rows."""
        counts = set()
        for k in (1, 4):
            for log_n in range(1, 11):
                n = 1 << log_n
                moduli = tuple(islice(ntt_friendly_primes_below(1 << 28, n), k))
                mat = np.zeros((3, k, n) if stacked else (k, n), dtype=np.uint64)
                ctx = ntt_rows_context(moduli, n)
                assert ctx._four_step
                transform = getattr(ctx, direction)
                transform(mat)  # build the tables
                counts.add(self._profile_events(lambda: transform(mat)))
        assert len(counts) == 1 and 0 < counts.pop() <= 40

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
        stage kernels for all ``m`` matrices, not ``m`` times that (at
        n = 2048, above the four-step gate; 4 x 12 rows fill the
        budget exactly)."""
        n, log_n = 2048, 11
        moduli = tuple(islice(ntt_friendly_primes_below(1 << 28, n), 12))
        stack = np.random.default_rng(7).integers(
            0, min(moduli), (4, 12, n), dtype=np.uint64
        )
        for direction, transform in (
            ("forward", forward_rows), ("inverse", inverse_rows)
        ):
            assert stages(direction, lambda: transform(stack, moduli)) == log_n
