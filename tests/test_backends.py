"""The kernel boundary (:mod:`repro.backends`): five functions, one engine.

1. Known answers.  ``tests/data/kernel_kat.json`` holds sha256 digests
   of ``bconv_fold`` / ``pointwise_mul`` / ``pointwise_mul_acc`` on the
   case list the registry's activation cross-check used to carry as
   code; with ``ntt_kat.json`` these are the files a future engine is
   admitted against (DESIGN.md Sec. 10).  The blind-engine tests swap a
   subtly wrong kernel in at the boundary and name the entries that
   catch it.
2. The numpy kernels against Python-int oracles over a width grid, and
   both narrow fold paths against the Python-int sum.
3. Full call paths (``base_convert``, ``scale_down``, the
   ``RnsPolynomial`` products): exact, and one counted crossing of the
   boundary per call.

``TestRegistry``, ``TestFallback`` and ``TestNumbaBitExact`` are named
for the registry and the second engine PR 18 removed; their test ids
are pinned by the tier-1 floor, so the names stay and the docstrings
say what each checks now.
"""

import json
import random
from functools import cache
from itertools import islice
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends as backends
from repro.backends.numpy_backend import _narrow_fold
from repro.nt import modmath
from repro.nt.crt import centered
from repro.nt.ntt import ntt_rows_context
from repro.nt.primes import ntt_friendly_primes_above, ntt_friendly_primes_below
from repro.obs import core as obs_core
from repro.rns.basis import RnsBasis
from repro.rns.convert import base_convert, scale_down
from repro.rns.poly import NTT, RnsPolynomial
from repro.rns.sampling import sample_uniform
from tests import test_nt_ntt_vectorized as ntt_tests
from tests.oracles.ntt_reference import reference_ntt_context
from tests.test_nt_ntt_vectorized import _digest


def primes(bound: int, n: int, count: int) -> tuple[int, ...]:
    return tuple(islice(ntt_friendly_primes_below(bound, n), count))


def _column(moduli) -> np.ndarray:
    return np.array(moduli, dtype=np.uint64).reshape(-1, 1)


# ----------------------------------------------------------------------
# Known-answer vectors (the kernel-engine re-entry contract) for the
# fold and the pointwise kernels, recorded from the numpy kernels of the
# commit before the registry went.  Inputs come from a 64-bit LCG over
# Python ints, so nothing here depends on a numpy generator.  Re-record
# (only when a kernel's definition changes, never to make a kernel
# change pass) with
#   PYTHONPATH=src python -c \
#     "import tests.test_backends as t; t.record_kat()"
# ----------------------------------------------------------------------
KAT_PATH = Path(__file__).parent / "data" / "kernel_kat.json"
KAT_N = 64
KAT_FILLS = ("random", "q-1", "zeros")


@cache
def _kat_cases() -> dict[str, tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """``label -> (kind, moduli, digit bounds)``.

    ``wide`` is probed where limb carries actually happen — both ends of
    [2^31, 2^61) — and with a narrow row riding the wide kernel (a
    single wide row forces it for the whole stack); ``narrow`` on both
    sides of 2^30 and at the smallest primes, where a quotient estimate
    has the fewest bits to be right in.  The fold takes digits of a
    foreign source basis, the shape ``base_convert`` emits: wide cases
    get 61-bit digits, which exceed every smaller destination
    unreduced, and the last case is the 36-level bootstrap's fold —
    47 digit rows onto 46 28-bit destinations, one uint64 product.
    """
    n = KAT_N

    def above(bound: int) -> tuple[int, ...]:
        return tuple(islice(ntt_friendly_primes_above(bound, n), 3))

    narrow, chain = primes(1 << 28, n, 3), primes(1 << 28, n, 47)
    wide_top, wide_bottom = primes(1 << 61, n, 3), above(1 << 31)
    cases = {
        "narrow": ("narrow", narrow),
        "narrow<2^30": ("narrow", primes(1 << 30, n, 3)),
        "narrow>2^30": ("narrow", above(1 << 30)),
        "narrow smallest": ("narrow", above(2)),
        "narrow 28+30.5": ("narrow", (narrow[0], primes(1518500250, n, 1)[0])),
        "wide": ("wide", primes(1 << 55, n, 3)),
        "wide<2^61": ("wide", wide_top),
        "wide>2^31": ("wide", wide_bottom),
        "narrow+wide": ("wide", (narrow[0], wide_top[0], wide_bottom[0])),
    }
    out = {
        label: (kind, moduli, narrow if kind == "narrow" else wide_top)
        for label, (kind, moduli) in cases.items()
    }
    out["narrow 47->46"] = ("narrow", chain[1:], (chain[0],) * 47)
    return out


def _kat_rows(bounds, fill: str, salt: int, count: int = KAT_N) -> np.ndarray:
    """A uint64 matrix: row ``i`` is ``count`` values below ``bounds[i]``."""
    rows = []
    for i, bound in enumerate(bounds):
        if fill == "random":
            rows.append(ntt_tests._kat_input(bound, count, salt=100 * salt + i))
        else:
            rows.append([bound - 1 if fill == "q-1" else 0] * count)
    return np.array(rows, dtype=np.uint64)


def _kat_entry(label: str, fill: str) -> dict:
    kind, moduli, digit_bounds = _kat_cases()[label]
    q_col = _column(moduli)
    a = _kat_rows(moduli, fill, salt=1)
    # A zero operand against a random partner and accumulator.
    partner = "random" if fill == "zeros" else fill
    b = _kat_rows(moduli, partner, salt=2)
    acc = _kat_rows(moduli, partner, salt=3)
    stack = _kat_rows(digit_bounds, fill, salt=4)
    weights = _kat_rows(moduli, partner, salt=5, count=len(digit_bounds))
    return {
        "case": label,
        "fill": fill,
        "kind": kind,
        "moduli": list(moduli),
        "input": _digest(
            np.concatenate([x.ravel() for x in (a, b, acc, stack, weights)])
        ),
        "pointwise_mul": _digest(backends.pointwise_mul(a, b, q_col, kind).ravel()),
        "pointwise_mul_acc": _digest(
            backends.pointwise_mul_acc(acc, a, b, q_col, kind).ravel()
        ),
        "bconv_fold": _digest(
            backends.bconv_fold(
                stack, weights, moduli, max(digit_bounds), kind
            ).ravel()
        ),
    }


def record_kat() -> None:
    entries = [_kat_entry(c, f) for c in _kat_cases() for f in KAT_FILLS]
    KAT_PATH.write_text(json.dumps(entries, indent=1) + "\n")


KAT_ENTRIES = json.loads(KAT_PATH.read_text())


def _kernel_kat_misses(kernel: str) -> list[str]:
    """Case labels on which the engine behind the boundary, as it
    stands, misses ``kernel``'s recorded answer."""
    return [
        e["case"]
        for e in KAT_ENTRIES
        if e["fill"] == "random"
        and _kat_entry(e["case"], "random")[kernel] != e[kernel]
    ]


@pytest.mark.parametrize(
    "entry", KAT_ENTRIES, ids=lambda e: f"{e['case']}-{e['fill']}"
)
def test_known_answer_vectors(entry):
    assert _kat_entry(entry["case"], entry["fill"]) == entry


def test_known_answer_file_covers_the_case_list():
    assert [(e["case"], e["fill"]) for e in KAT_ENTRIES] == [
        (c, f) for c in _kat_cases() for f in KAT_FILLS
    ]


def _off_by_one(kernel, wrong_when):
    """``kernel`` with its first output word bumped whenever
    ``wrong_when(*args)`` — the shape of a width-overflowing engine."""

    def blind(*args):
        out = kernel(*args)
        if wrong_when(*args):
            out = out.copy()
            out.flat[0] ^= 1
        return out

    return blind


class TestRegistry:
    def test_numpy_is_registered_and_reference_first(self):
        """What ``obs.export`` and the ladder's header stamp."""
        assert backends.available_backends() == ("numpy",)
        assert backends.active_name() == "numpy"


class TestFallback:
    """The known-answer files catch the engines the activation
    cross-check was extended, twice, to catch."""

    def test_crosscheck_probes_both_ends_of_wide_and_mixed_rows(self, monkeypatch):
        # Exact below 2^55 and wrong where the 32-bit limbs carry.
        monkeypatch.setattr(backends, "pointwise_mul", _off_by_one(
            backends.pointwise_mul,
            lambda a, b, q_col, kind: int(q_col.max()) >= 1 << 60,
        ))
        assert _kernel_kat_misses("pointwise_mul") == ["wide<2^61", "narrow+wide"]

    def test_crosscheck_probes_where_the_ntt_changes_word(self, monkeypatch):
        # Exact wherever 4q <= 2^31 and wherever the stack is wide, wrong
        # on the narrow primes in between, where the uint32 stage loop's
        # int32 view no longer holds the lazy range.
        monkeypatch.setattr(backends, "ntt_forward", _off_by_one(
            backends.ntt_forward, lambda ctx, mat: 1 << 29 < max(ctx.moduli) < 1 << 31
        ))
        entries = json.loads(ntt_tests.KAT_PATH.read_text())
        missed = [
            (e["width"], e["n"]) for e in entries
            if ntt_tests._kat_entry(e["width"], e["n"]) != e
        ]
        assert missed == [
            ("below30", 128), ("30to31", 128), ("below30", 4096), ("30to31", 4096)
        ]


# ----------------------------------------------------------------------
# The kernels against oracles that share no code with them: the
# per-block reference NTT, and Python ints.
# ----------------------------------------------------------------------
WIDTH_BOUNDS = {
    "narrow": 1 << 28,
    "wide33": 1 << 33,  # just past the 32-bit boundary
    "wide": 1 << 55,
    "wide61": 1 << 61,  # top of the wide range: every limb carries
}


@pytest.mark.parametrize("width", sorted(WIDTH_BOUNDS))
@pytest.mark.parametrize("n", [16, 64])
class TestNumbaBitExact:
    """The five kernels, called at the boundary, over a width grid."""

    def _basis(self, width, n, count=3):
        return primes(WIDTH_BOUNDS[width], n, count)

    def _mats(self, moduli, n, seed):
        rng = np.random.default_rng(seed)
        return np.stack(
            [rng.integers(0, q, n, dtype=np.uint64) for q in moduli]
        )

    def test_ntt_round_trip_and_exactness(self, width, n):
        moduli = self._basis(width, n)
        ctx = ntt_rows_context(moduli, n)
        mat = self._mats(moduli, n, seed=n)
        fwd = backends.ntt_forward(ctx, mat)
        for row, got, q in zip(mat, fwd, moduli):
            want = reference_ntt_context(q, n).forward(modmath.as_mod_array(row, q))
            assert got.tolist() == [int(v) for v in want]
        assert np.array_equal(backends.ntt_inverse(ctx, fwd), mat)

    def test_ntt_stack_equals_separate_matrices(self, width, n):
        """The ``(m, k, n)`` half of the contract: a stack of siblings
        comes back as the separate transforms of its matrices."""
        moduli = self._basis(width, n)
        ctx = ntt_rows_context(moduli, n)
        stack = np.stack([self._mats(moduli, n, seed=n + i) for i in range(3)])
        for kernel in (backends.ntt_forward, backends.ntt_inverse):
            got = kernel(ctx, stack)
            assert got.shape == stack.shape
            for sub, mat in zip(got, stack):
                assert np.array_equal(sub, kernel(ctx, mat))

    def test_pointwise_kernels(self, width, n):
        moduli = self._basis(width, n)
        kind = ntt_rows_context(moduli, n).kind
        a = self._mats(moduli, n, seed=n + 1)
        b = self._mats(moduli, n, seed=n + 2)
        acc = self._mats(moduli, n, seed=n + 3)
        mul = backends.pointwise_mul(a, b, _column(moduli), kind)
        fused = backends.pointwise_mul_acc(acc, a, b, _column(moduli), kind)
        for i, q in enumerate(moduli):
            products = [int(x) * int(y) for x, y in zip(a[i], b[i])]
            assert mul[i].tolist() == [p % q for p in products]
            assert fused[i].tolist() == [
                (int(c) + p) % q for c, p in zip(acc[i], products)
            ]

    def test_bconv_fold(self, width, n):
        src = primes(1 << 28, n, 3) + primes(1 << 55, n, 1)
        moduli = self._basis(width, n)
        kind = "narrow" if width == "narrow" else "wide"
        rng = np.random.default_rng(n * 7)
        stack = np.stack(
            [rng.integers(0, q, n, dtype=np.uint64) for q in src]
        )
        weights = np.stack(
            [
                rng.integers(0, p, len(src), dtype=np.uint64)
                for p in moduli
            ]
        )
        got = backends.bconv_fold(stack, weights, moduli, max(src), kind)
        assert got.dtype == np.uint64 and got.tolist() == _fold_oracle(
            stack, weights, moduli
        )


def _fold_oracle(stack, weights, dst) -> list[list[int]]:
    return [
        [sum(int(v) * int(w) for v, w in zip(col, row)) % p for col in stack.T]
        for row, p in zip(weights, dst)
    ]


class TestNarrowFoldPaths:
    """``bconv_fold`` for narrow destinations is one uint64 matrix
    product while ``kk · max(v, p) · p < 2^64`` and the chunked
    per-destination fold past it; both must equal the Python-int sum."""

    N = 16

    @staticmethod
    def _one_product(kk, v_bound, dst):
        return kk * max(v_bound, max(dst)) * max(dst) < 1 << 64

    def _case(self, kk, v_bound, dst_bound, worst):
        rng = np.random.default_rng(kk)
        dst = primes(dst_bound, self.N, 5)
        if worst:  # every digit and weight at its maximum
            stack = np.full((kk, self.N), v_bound - 1, dtype=np.uint64)
            weights = np.array([[p - 1] * kk for p in dst], dtype=np.uint64)
        else:
            stack = rng.integers(0, v_bound, (kk, self.N), dtype=np.uint64)
            weights = np.stack(
                [rng.integers(0, p, kk, dtype=np.uint64) for p in dst])
        return stack, weights, dst

    @pytest.mark.parametrize("worst", [False, True], ids=["random", "worst-case"])
    @pytest.mark.parametrize(
        "kk,v_bits,dst_bits,one_product",
        [
            (47, 28, 28, True),    # the bootstrap's shape, far inside
            (15, 30, 30, True),    # 15 * 2^60: just under the bound
            (17, 30, 30, False),   # 17 * 2^60: just over it
            (3, 31, 31, True),     # widest narrow words, few digits
            (5, 31, 31, False),
            (4, 33, 28, True),     # digits wider than the destinations
            (2, 60, 28, False),    # wide source: needs the pre-reduction
            (1, 61, 31, False),
        ],
    )
    def test_paths_agree_with_the_python_int_sum(
        self, kk, v_bits, dst_bits, one_product, worst
    ):
        v_bound = 1 << v_bits
        stack, weights, dst = self._case(kk, v_bound, 1 << dst_bits, worst)
        assert self._one_product(kk, v_bound, dst) == one_product
        oracle = _fold_oracle(stack, weights, dst)
        got = backends.bconv_fold(stack, weights, dst, v_bound, "narrow")
        assert got.dtype == np.uint64 and got.tolist() == oracle
        chunked = [_narrow_fold(stack, row, p, v_bound).tolist()
                   for row, p in zip(weights, dst)]
        assert chunked == oracle

    def test_dispatch_reaches_the_same_fold(self):
        """A tuple of destinations (what ``base_convert`` passes) and a
        uint64 array of them are the same call."""
        stack, weights, dst = self._case(47, 1 << 28, 1 << 28, worst=False)
        got = backends.bconv_fold(stack, weights, dst, 1 << 28, "narrow")
        want = backends.bconv_fold(
            stack, weights, np.array(dst, dtype=np.uint64), 1 << 28, "narrow")
        assert np.array_equal(got, want)

    def test_crosscheck_probes_the_bootstrap_shape(self, monkeypatch):
        """An engine wrong only on the one-product path of a long fold
        misses exactly the 47 -> 46 entry."""
        monkeypatch.setattr(backends, "bconv_fold", _off_by_one(
            backends.bconv_fold, lambda stack, *_: stack.shape[0] == 47
        ))
        assert _kernel_kat_misses("bconv_fold") == ["narrow 47->46"]


class TestWideFoldWords:
    """``bconv_fold`` for wide destinations multiplies at β = 2^62: every
    digit is below its source modulus, so below 2^61, well inside the
    three-product quotient's ``x < 2^63``, even at that edge — one
    multiply per digit row."""

    N = 16

    @pytest.mark.parametrize("v_bits, word", [(55, 62), (63, 62)])
    @pytest.mark.parametrize("worst", [False, True], ids=["random", "worst-case"])
    def test_word_follows_the_digit_bound(self, monkeypatch, v_bits, word, worst):
        calls = {62: 0}

        def spy(fn, beta):
            def counted(*args, **kwargs):
                calls[beta] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(modmath, "mod_mul_shoup62_lazy",
                            spy(modmath.mod_mul_shoup62_lazy, 62))
        kk = 4
        top = (1 << v_bits) - 1
        dst = primes(1 << 60, self.N, 3)
        rng = np.random.default_rng(v_bits)
        if worst:
            stack = np.full((kk, self.N), top, dtype=np.uint64)
            weights = np.array([[p - 1] * kk for p in dst], dtype=np.uint64)
        else:
            stack = rng.integers(0, top, (kk, self.N), dtype=np.uint64,
                                 endpoint=True)
            weights = np.stack(
                [rng.integers(0, p, kk, dtype=np.uint64) for p in dst])
        got = backends.bconv_fold(stack, weights, dst, top + 1, "wide")
        assert got.tolist() == _fold_oracle(stack, weights, dst)
        assert calls == {word: kk}


#: Stacked multiply-accumulate chains: label -> (kind, moduli).  The
#: 31-bit primes hold narrow chunks to 4 terms, so ``m > 4`` crosses
#: the bound; the wide pair spans 2^60..2^61 (every limb carries).
MUL_ACC_CHAINS = {
    "narrow28": ("narrow", primes(1 << 28, 16, 3)),
    "narrow31": ("narrow", primes(1 << 31, 16, 3)),
    "wide": ("wide", primes(1 << 61, 16, 2) + primes(1 << 60, 16, 1)),
}


class TestStackedMulAcc:
    """``pointwise_mul_acc`` over ``(m, k, n)`` stacks equals the
    per-term reference — the 2-D call once per term, and the Python-int
    sum — on every width class, across the narrow chunk bound."""

    N = 16

    @staticmethod
    def _rows(moduli, kind, rng, fill, lead=()):
        shape = (*lead, len(moduli), TestStackedMulAcc.N)
        q = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        if fill == "max":
            return np.broadcast_to(q - np.uint64(1), shape).copy()
        return rng.integers(0, q, shape, dtype=np.uint64)

    @settings(max_examples=40, deadline=None)
    @given(
        label=st.sampled_from(sorted(MUL_ACC_CHAINS)),
        m=st.integers(1, 12),
        fill=st.sampled_from(["random", "max"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_per_term_reference(self, label, m, fill, seed):
        kind, moduli = MUL_ACC_CHAINS[label]
        assert {modmath.backend_kind(q) for q in moduli} == {kind}
        rng = np.random.default_rng(seed)
        q_col = _column(moduli)
        a, b = (self._rows(moduli, kind, rng, fill, (m,)) for _ in range(2))
        acc = self._rows(moduli, kind, rng, fill)
        got = backends.pointwise_mul_acc(acc, a, b, q_col, kind)
        per_term = acc
        for x, y in zip(a, b):
            per_term = backends.pointwise_mul_acc(per_term, x, y, q_col, kind)
        want = [
            [
                (int(c) + sum(int(x[i, j]) * int(y[i, j]) for x, y in zip(a, b))) % q
                for j, c in enumerate(acc[i])
            ]
            for i, q in enumerate(moduli)
        ]
        assert got.dtype == acc.dtype and got.tolist() == want
        assert per_term.tolist() == want
        as_lists = backends.pointwise_mul_acc(acc, list(a), list(b), q_col, kind)
        assert as_lists.tolist() == want

    def test_narrow31_crosses_the_chunk_bound(self):
        p = max(MUL_ACC_CHAINS["narrow31"][1])
        assert 1 << 30 < p < 1 << 31
        assert ((1 << 64) - p) // (p - 1) ** 2 == 4

    @pytest.mark.parametrize("label", sorted(MUL_ACC_CHAINS))
    def test_terms_broadcast_to_the_accumulator(self, label):
        """A ``(m, 2, k, n)`` stack against ``(m, k, n)``: both
        polynomials of a ciphertext against one plaintext per term."""
        kind, moduli = MUL_ACC_CHAINS[label]
        rng = np.random.default_rng(7)
        q_col = _column(moduli)
        a = self._rows(moduli, kind, rng, "random", (5, 2))
        b = self._rows(moduli, kind, rng, "random", (5,))
        acc = self._rows(moduli, kind, rng, "random", (2,))
        got = backends.pointwise_mul_acc(acc, a, b, q_col, kind)
        for half in (0, 1):
            want = backends.pointwise_mul_acc(acc[half], a[:, half], b, q_col, kind)
            assert np.array_equal(got[half], want)

    def test_inputs_are_not_mutated(self):
        kind, moduli = MUL_ACC_CHAINS["narrow31"]
        rng = np.random.default_rng(3)
        a, b = (self._rows(moduli, kind, rng, "max", (9,)) for _ in range(2))
        acc = self._rows(moduli, kind, rng, "max")
        copies = [x.copy() for x in (acc, a, b)]
        backends.pointwise_mul_acc(acc, a, b, _column(moduli), kind)
        assert all(np.array_equal(x, c) for x, c in zip((acc, a, b), copies))


@pytest.fixture
def kernel_counts():
    """Counts of ``kernel.backend.numpy.<kernel>`` since the last read."""
    obs_core.reset()
    obs_core.enable()

    def read() -> dict[str, float]:
        prefix = "kernel.backend.numpy."
        counts = {
            name[len(prefix):]: value
            for name, value in obs_core.counters().items()
            if name.startswith(prefix)
        }
        obs_core.reset()
        return counts

    yield read
    obs_core.disable()
    obs_core.reset()


class TestEndToEndEquivalence:
    """Full call paths are exact, and cross the boundary once per
    kernel call: one ``kernel.backend.numpy.*`` count each."""

    N = 32

    def _ints(self, moduli, seed):
        # Away from +-Q/2, where the float alpha estimate of an exact
        # conversion is documented to be unreliable.
        bound = prod(moduli) // 4
        rng = random.Random(seed)
        coeffs = [rng.randrange(-bound, bound) for _ in range(self.N)]
        return coeffs, RnsPolynomial.from_int_coeffs(RnsBasis(self.N, moduli), coeffs)

    def _poly(self, moduli, seed):
        rng = np.random.default_rng(seed)
        return sample_uniform(RnsBasis(self.N, moduli), rng, NTT)

    @staticmethod
    def _mul_acc(acc, a, b):
        """``acc + a·b`` on the polynomials' matrices, as the evaluator
        calls the kernel."""
        basis = acc.basis
        return backends.pointwise_mul_acc(
            acc.mat, a.mat, b.mat, basis.q_col, basis.kind)

    def test_base_convert_matches(self, kernel_counts):
        src = primes(1 << 28, self.N, 3)
        dst = primes(1 << 28, self.N, 5)[3:] + primes(1 << 55, self.N, 1)
        coeffs, poly = self._ints(src, seed=11)
        kernel_counts()
        got = base_convert(poly, dst, exact=True)
        assert kernel_counts() == {"bconv_fold": 1}
        for p, row in zip(dst, got.rows):
            assert row.tolist() == [c % p for c in coeffs]

    def test_scale_down_matches(self, kernel_counts):
        moduli = primes(1 << 28, self.N, 4)
        coeffs, poly = self._ints(moduli, seed=13)
        kernel_counts()
        got = scale_down(poly, (moduli[-1],))
        assert kernel_counts() == {"bconv_fold": 1}
        rounded = [(c - centered(c, moduli[-1])) // moduli[-1] for c in coeffs]
        for q, row in zip(moduli[:-1], got.rows):
            assert row.tolist() == [y % q for y in rounded]

    def test_poly_mul_and_mul_acc_match(self, kernel_counts):
        moduli = primes(1 << 28, self.N, 2) + primes(1 << 55, self.N, 1)
        a, b, c = (self._poly(moduli, seed=s) for s in (17, 19, 23))
        kernel_counts()
        mul = a.pointwise_mul(b)
        assert kernel_counts() == {"pointwise_mul": 1}
        fused = self._mul_acc(c, a, b)
        assert kernel_counts() == {"pointwise_mul_acc": 1}
        for i, q in enumerate(moduli):
            products = [int(x) * int(y) for x, y in zip(a.mat[i], b.mat[i])]
            assert mul.mat[i].tolist() == [p % q for p in products]
            assert fused[i].tolist() == [
                (int(z) + p) % q for z, p in zip(c.mat[i], products)
            ]

    def test_mul_acc_equals_mul_then_add(self):
        moduli = primes(1 << 28, self.N, 3)
        a, b, c = (self._poly(moduli, seed=s) for s in (29, 31, 37))
        fused = self._mul_acc(c, a, b)
        unfused = c.add(a.pointwise_mul(b))
        assert np.array_equal(fused, unfused.mat)

    def test_ntt_crossings_are_counted_once_per_pass(self, kernel_counts):
        moduli = primes(1 << 28, self.N, 3)
        poly = self._poly(moduli, seed=41)
        kernel_counts()
        poly.to_coeff().to_ntt()
        assert kernel_counts() == {"ntt_inverse": 1, "ntt_forward": 1}
