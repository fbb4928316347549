"""Kernel-backend registry tests: selection, fallback, exactness.

Four layers of coverage:

1. registry mechanics — registration, ordering, selection precedence
   (explicit > ``$BITPACKER_BACKEND`` > auto), the ``use`` context
   manager, and the ``backends`` CLI listing;
2. fallback behavior — naming a missing backend (the
   ``BITPACKER_BACKEND=numba`` with numba uninstalled regression) warns
   exactly once and lands on numpy instead of raising, and a backend
   that fails its bit-exactness cross-check is never dispatched to;
3. the sanitize shadow contract — under ``REPRO_SANITIZE`` every
   non-reference dispatch is compared elementwise against the numpy
   reference and a divergent kernel raises ``InvariantViolation``;
4. cross-backend bit-exactness — the numba backend's kernels (which run
   pure-Python when the extra is absent, exercising the identical
   Shoup / limb arithmetic the JIT compiles) must match the numpy
   reference bit for bit over a randomized (moduli, n, width) grid,
   including wide > 32-bit primes, both at the kernel level and through
   the full ``base_convert`` / NTT / keyswitch-shaped call paths.
"""

import warnings
from itertools import islice

import numpy as np
import pytest

import repro.backends as backends
from repro.analysis import sanitize
from repro.backends import KERNELS, KINDS, KernelBackend
from repro.backends.numba_backend import AVAILABLE as NUMBA_AVAILABLE
from repro.backends.numba_backend import NumbaBackend
from repro.backends.numpy_backend import NumpyBackend, _narrow_fold
from repro.errors import InvariantViolation, ParameterError
from repro.nt.ntt import forward_rows, inverse_rows, ntt_rows_context
from repro.nt.primes import ntt_friendly_primes_below
from repro.rns.basis import RnsBasis
from repro.rns.convert import base_convert, scale_down
from repro.rns.poly import COEFF, NTT
from repro.rns.sampling import sample_uniform


def primes(bound: int, n: int, count: int) -> tuple[int, ...]:
    return tuple(islice(ntt_friendly_primes_below(bound, n), count))


@pytest.fixture
def registry(monkeypatch):
    """Pristine registry state around each test, env selection cleared."""
    monkeypatch.delenv("BITPACKER_BACKEND", raising=False)
    saved = dict(backends._REGISTRY)
    backends._reset_for_tests()
    yield backends
    backends._REGISTRY.clear()
    backends._REGISTRY.update(saved)
    backends._reset_for_tests()


@pytest.fixture
def sanitizer():
    sanitize.disable()
    yield sanitize
    sanitize.disable()


class _Delegating(KernelBackend):
    """A correct non-reference backend: defers to the numpy kernels.

    ``corrupt`` flips one output word after verification has passed —
    the shape of a miscompiled or width-overflowing JIT kernel that the
    sanitize shadow check exists to catch.
    """

    name = "delegating"
    priority = 50
    supported = frozenset((k, w) for k in KERNELS for w in KINDS)

    def __init__(self):
        self._inner = NumpyBackend()
        self.corrupt = False

    def _out(self, mat):
        if self.corrupt:
            mat = mat.copy()
            mat.flat[0] = (mat.flat[0] + np.uint64(1)) % np.uint64(2)
        return mat

    def ntt_forward(self, ctx, mat):
        return self._out(self._inner.ntt_forward(ctx, mat))

    def ntt_inverse(self, ctx, mat):
        return self._out(self._inner.ntt_inverse(ctx, mat))

    def bconv_fold(self, stack, weights, dst_moduli, v_bound, kind):
        return self._out(
            self._inner.bconv_fold(stack, weights, dst_moduli, v_bound, kind)
        )

    def pointwise_mul(self, a, b, q_col, kind):
        return self._out(self._inner.pointwise_mul(a, b, q_col, kind))

    def pointwise_mul_acc(self, acc, a, b, q_col, kind):
        return self._out(
            self._inner.pointwise_mul_acc(acc, a, b, q_col, kind)
        )


class _Broken(_Delegating):
    name = "broken"

    def __init__(self):
        super().__init__()
        self.corrupt = True


class _CarryBlind(_Delegating):
    """Exact below 2^55 — all the old probe set looked at — and wrong
    where the 32-bit limbs actually carry."""

    name = "carryblind"

    def pointwise_mul(self, a, b, q_col, kind):
        self.corrupt = int(q_col.max()) >= 1 << 60
        try:
            return super().pointwise_mul(a, b, q_col, kind)
        finally:
            self.corrupt = False


class _WordBlind(_Delegating):
    """Exact wherever ``4q <= 2^32`` and wherever the stack is wide —
    all the old probe set looked at — and wrong on the narrow primes in
    between, where a 32-bit Shoup word no longer holds the lazy range."""

    name = "wordblind"

    def ntt_forward(self, ctx, mat):
        self.corrupt = 1 << 30 < max(ctx.moduli) < 1 << 31
        try:
            return super().ntt_forward(ctx, mat)
        finally:
            self.corrupt = False


class TestRegistry:
    def test_numpy_is_registered_and_reference_first(self, registry):
        names = registry.available_backends()
        assert names[0] == "numpy"
        assert registry.REFERENCE_BACKEND == "numpy"

    def test_unknown_backend_raises(self, registry):
        with pytest.raises(ParameterError, match="unknown kernel backend"):
            registry.get_backend("cuda")

    def test_default_selection_is_auto(self, registry):
        assert registry.requested_backend() == "auto"

    def test_env_selection(self, registry, monkeypatch):
        monkeypatch.setenv("BITPACKER_BACKEND", "numpy")
        registry._reset_for_tests()
        assert registry.requested_backend() == "numpy"
        assert registry.active_name() == "numpy"

    def test_explicit_overrides_env(self, registry, monkeypatch):
        monkeypatch.setenv("BITPACKER_BACKEND", "auto")
        registry.set_backend("numpy")
        assert registry.requested_backend() == "numpy"

    def test_use_restores_previous_selection(self, registry):
        registry.set_backend("numpy")
        with registry.use("auto") as active:
            assert registry.requested_backend() == "auto"
            assert active.name == registry.active_name()
        assert registry.requested_backend() == "numpy"

    def test_auto_prefers_highest_priority_verified(self, registry):
        registry.register_backend(_Delegating())
        assert registry.active_name() == "delegating"

    def test_registry_rejects_anonymous_backend(self, registry):
        with pytest.raises(ParameterError, match="non-empty name"):
            registry.register_backend(KernelBackend())

    def test_backend_status_rows(self, registry):
        registry.register_backend(_Delegating())
        rows = {r["name"]: r for r in registry.backend_status()}
        assert rows["numpy"]["verified"] is True
        assert rows["delegating"]["verified"] is True
        assert rows["delegating"]["active"] is True
        assert not rows["numpy"]["active"]
        assert len(rows["delegating"]["supported"]) == len(KERNELS) * len(
            KINDS
        )

    def test_unsupported_kernel_falls_back_to_reference(self, registry):
        limited = _Delegating()
        limited.supported = frozenset({("pointwise_mul", "narrow")})
        registry.register_backend(limited)
        assert registry.active_name() == "delegating"
        assert registry._select("pointwise_mul", "narrow") is limited
        assert registry._select("ntt_forward", "narrow").name == "numpy"
        assert registry._select("pointwise_mul", "wide").name == "numpy"


class TestFallback:
    @pytest.mark.skipif(
        NUMBA_AVAILABLE, reason="needs a numba-less install"
    )
    def test_numba_missing_falls_back_with_single_warning(
        self, registry, monkeypatch
    ):
        """BITPACKER_BACKEND=numba without the extra: warn once, run numpy."""
        monkeypatch.setenv("BITPACKER_BACKEND", "numba")
        registry._reset_for_tests()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert registry.active_name() == "numpy"
            # Dispatch actually works on the fallback...
            moduli = primes(1 << 28, 16, 2)
            mat = np.stack(
                [np.arange(16, dtype=np.uint64) % q for q in moduli]
            )
            out = forward_rows(mat, moduli)
            assert np.array_equal(inverse_rows(out, moduli), mat)
            # ...and repeated resolution does not re-warn.
            registry._invalidate()
            assert registry.active_name() == "numpy"
        relevant = [
            w for w in caught if "numba" in str(w.message).lower()
        ]
        assert len(relevant) == 1
        assert "falling back to numpy" in str(relevant[0].message)

    def test_broken_backend_never_dispatched(self, registry):
        registry.register_backend(_Broken())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            registry.set_backend("broken")
            assert registry.active_name() == "numpy"
        assert any("bit-exactness" in str(w.message) for w in caught)
        rows = {r["name"]: r for r in registry.backend_status()}
        assert rows["broken"]["verified"] is False
        assert rows["broken"]["verify_errors"]

    def test_crosscheck_probes_both_ends_of_wide_and_mixed_rows(
        self, registry
    ):
        registry.register_backend(_CarryBlind())
        errors = registry.verify_backend("carryblind")
        assert errors == [
            "pointwise_mul[wide<2^61]: output differs from numpy",
            "pointwise_mul[narrow+wide]: output differs from numpy",
        ]

    def test_crosscheck_probes_where_the_ntt_changes_word(self, registry):
        registry.register_backend(_WordBlind())
        errors = registry.verify_backend("wordblind")
        assert errors == [
            f"ntt_forward[{probe}{fill}]: output differs from numpy"
            for probe in ("narrow>2^30", "narrow 28+30.5")
            for fill in ("", ", stacked", ", q-1", ", zeros")
        ]

    def test_auto_skips_broken_backend(self, registry):
        registry.register_backend(_Broken())
        assert registry.active_name() == "numpy"


class TestSanitizeShadow:
    def test_divergent_backend_raises_under_sanitize(
        self, registry, sanitizer
    ):
        flaky = _Delegating()
        registry.register_backend(flaky)
        registry.set_backend("delegating")
        assert registry.active_name() == "delegating"  # verified clean
        moduli = primes(1 << 28, 16, 2)
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        a = np.stack([np.arange(16, dtype=np.uint64) % q for q in moduli])
        sanitizer.enable()
        # Clean backend: shadow comparison passes silently.
        backends.pointwise_mul(a, a, q_col, "narrow")
        flaky.corrupt = True
        with pytest.raises(InvariantViolation, match="diverged"):
            backends.pointwise_mul(a, a, q_col, "narrow")

    def test_reference_backend_not_shadowed(self, registry, sanitizer):
        sanitizer.enable()
        moduli = primes(1 << 28, 16, 2)
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        a = np.stack([np.arange(16, dtype=np.uint64) % q for q in moduli])
        out = backends.pointwise_mul(a, a, q_col, "narrow")
        assert out.shape == a.shape


# ----------------------------------------------------------------------
# Cross-backend bit-exactness.  Without the numba extra these run the
# pure-Python images of the JIT kernels — the identical Shoup/limb
# arithmetic, minus the compilation — so the algorithms stay pinned on
# every install.  Small n keeps the interpreted butterflies affordable.
# ----------------------------------------------------------------------
WIDTH_BOUNDS = {
    "narrow": 1 << 28,
    "wide33": 1 << 33,  # just past the 32-bit boundary
    "wide": 1 << 55,
    "wide61": 1 << 61,  # top of the wide range: every limb carries
}


@pytest.fixture(scope="module")
def numba_backend():
    return NumbaBackend()


@pytest.fixture(scope="module")
def numpy_backend():
    return NumpyBackend()


@pytest.mark.parametrize("width", sorted(WIDTH_BOUNDS))
@pytest.mark.parametrize("n", [16, 64])
class TestNumbaBitExact:
    def _basis(self, width, n, count=3):
        return primes(WIDTH_BOUNDS[width], n, count)

    def _mats(self, moduli, n, seed):
        rng = np.random.default_rng(seed)
        return np.stack(
            [rng.integers(0, q, n, dtype=np.uint64) for q in moduli]
        )

    def test_ntt_round_trip_and_exactness(
        self, width, n, numba_backend, numpy_backend
    ):
        moduli = self._basis(width, n)
        ctx = ntt_rows_context(moduli, n)
        mat = self._mats(moduli, n, seed=n)
        got_f = numba_backend.ntt_forward(ctx, mat)
        want_f = numpy_backend.ntt_forward(ctx, mat)
        assert np.array_equal(got_f, want_f)
        got_i = numba_backend.ntt_inverse(ctx, got_f)
        assert np.array_equal(got_i, mat)

    def test_ntt_stack_equals_separate_matrices(
        self, width, n, numba_backend, numpy_backend
    ):
        """The ``(m, k, n)`` half of the contract: a stack of siblings
        comes back as the separate transforms of its matrices."""
        moduli = self._basis(width, n)
        ctx = ntt_rows_context(moduli, n)
        stack = np.stack([self._mats(moduli, n, seed=n + i) for i in range(3)])
        for kernel in ("ntt_forward", "ntt_inverse"):
            got = getattr(numba_backend, kernel)(ctx, stack)
            assert got.shape == stack.shape
            for sub, mat in zip(got, stack):
                assert np.array_equal(sub, getattr(numpy_backend, kernel)(ctx, mat))

    def test_pointwise_kernels(
        self, width, n, numba_backend, numpy_backend
    ):
        moduli = self._basis(width, n)
        kind = ctx_kind = ntt_rows_context(moduli, n).kind
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        a = self._mats(moduli, n, seed=n + 1)
        b = self._mats(moduli, n, seed=n + 2)
        acc = self._mats(moduli, n, seed=n + 3)
        assert np.array_equal(
            numba_backend.pointwise_mul(a, b, q_col, kind),
            numpy_backend.pointwise_mul(a, b, q_col, ctx_kind),
        )
        assert np.array_equal(
            numba_backend.pointwise_mul_acc(acc, a, b, q_col, kind),
            numpy_backend.pointwise_mul_acc(acc, a, b, q_col, kind),
        )

    def test_bconv_fold(self, width, n, numba_backend, numpy_backend):
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
        dst = np.array(moduli, dtype=np.uint64)
        bound = max(src)
        assert np.array_equal(
            numba_backend.bconv_fold(stack, weights, dst, bound, kind),
            numpy_backend.bconv_fold(stack, weights, dst, bound, kind),
        )


class TestNarrowFoldPaths:
    """The reference ``bconv_fold`` for narrow destinations is one uint64
    matrix product while ``kk · max(v, p) · p < 2^64`` and the chunked
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
        self, numpy_backend, kk, v_bits, dst_bits, one_product, worst
    ):
        v_bound = 1 << v_bits
        stack, weights, dst = self._case(kk, v_bound, 1 << dst_bits, worst)
        assert self._one_product(kk, v_bound, dst) == one_product
        oracle = [
            [sum(int(v) * int(w) for v, w in zip(col, row)) % p for col in stack.T]
            for row, p in zip(weights, dst)
        ]
        got = numpy_backend.bconv_fold(
            stack, weights, np.array(dst, dtype=np.uint64), v_bound, "narrow")
        assert got.dtype == np.uint64 and got.tolist() == oracle
        chunked = [_narrow_fold(stack, row, p, v_bound).tolist()
                   for row, p in zip(weights, dst)]
        assert chunked == oracle

    def test_dispatch_reaches_the_same_fold(self, registry):
        stack, weights, dst = self._case(47, 1 << 28, 1 << 28, worst=False)
        got = registry.bconv_fold(stack, weights, dst, 1 << 28, "narrow")
        want = NumpyBackend().bconv_fold(
            stack, weights, np.array(dst, dtype=np.uint64), 1 << 28, "narrow")
        assert np.array_equal(got, want)

    def test_crosscheck_probes_the_bootstrap_shape(self, registry):
        class FoldBlind(_Delegating):
            name = "foldblind"

            def bconv_fold(self, stack, weights, dst_moduli, v_bound, kind):
                out = super().bconv_fold(stack, weights, dst_moduli, v_bound, kind)
                return out + np.uint64(stack.shape[0] == 47)

        registry.register_backend(FoldBlind())
        assert registry.verify_backend("foldblind") == [
            "bconv_fold[narrow 47->46]: output differs from numpy"
        ]


class TestEndToEndEquivalence:
    """Full call paths agree bit for bit when the numba engine is live."""

    N = 32

    @pytest.fixture
    def numba_registered(self, registry):
        registry.register_backend(NumbaBackend())
        return registry

    def _poly(self, moduli, seed, domain=COEFF):
        rng = np.random.default_rng(seed)
        return sample_uniform(RnsBasis(self.N, moduli), rng, domain)

    def test_base_convert_matches(self, numba_registered):
        src = primes(1 << 28, self.N, 3)
        dst = primes(1 << 28, self.N, 5)[3:] + primes(1 << 55, self.N, 1)
        poly = self._poly(src, seed=11)
        with backends.use("numpy"):
            want = base_convert(poly, dst, exact=True)
        with backends.use("numba"):
            got = base_convert(poly, dst, exact=True)
        for w, g in zip(want.rows, got.rows):
            assert np.array_equal(w, g)

    def test_scale_down_matches(self, numba_registered):
        moduli = primes(1 << 28, self.N, 4)
        poly = self._poly(moduli, seed=13)
        with backends.use("numpy"):
            want = scale_down(poly, (moduli[-1],))
        with backends.use("numba"):
            got = scale_down(poly, (moduli[-1],))
        for w, g in zip(want.rows, got.rows):
            assert np.array_equal(w, g)

    def test_poly_mul_and_mul_acc_match(self, numba_registered):
        moduli = primes(1 << 28, self.N, 2) + primes(1 << 55, self.N, 1)
        a = self._poly(moduli, seed=17, domain=NTT)
        b = self._poly(moduli, seed=19, domain=NTT)
        c = self._poly(moduli, seed=23, domain=NTT)
        with backends.use("numpy"):
            want_mul = a.pointwise_mul(b)
            want_acc = c.pointwise_mul_acc(a, b)
        with backends.use("numba"):
            got_mul = a.pointwise_mul(b)
            got_acc = c.pointwise_mul_acc(a, b)
        for w, g in zip(want_mul.rows, got_mul.rows):
            assert np.array_equal(w, g)
        for w, g in zip(want_acc.rows, got_acc.rows):
            assert np.array_equal(w, g)

    def test_mul_acc_equals_mul_then_add(self, numba_registered):
        moduli = primes(1 << 28, self.N, 3)
        a = self._poly(moduli, seed=29, domain=NTT)
        b = self._poly(moduli, seed=31, domain=NTT)
        c = self._poly(moduli, seed=37, domain=NTT)
        fused = c.pointwise_mul_acc(a, b)
        unfused = c.add(a.pointwise_mul(b))
        for w, g in zip(unfused.rows, fused.rows):
            assert np.array_equal(w, g)
