"""Pluggable kernel-backend registry for the RNS/CKKS hot paths.

The PR-1 vectorized numpy kernels are one *execution engine* for the hot
kernels every CKKS operation decomposes into; this package makes them
the **reference backend** of a registry so alternative engines (a
Numba-JIT fast path today, CUDA or an RTL oracle tomorrow) plug into the
same four dispatch points:

- ``ntt_forward`` / ``ntt_inverse`` — the batched ``(k, n)`` negacyclic
  NTT stage loops of :class:`repro.nt.ntt.NttRowsContext` (every
  transform, single-prime ones and ``(m, k, n)`` stacks of sibling
  polynomials included);
- ``bconv_fold`` — the base-conversion digit fold
  ``out[j] = Σ_i v_i · h_{j,i} mod p_j`` behind
  :func:`repro.rns.convert.base_convert` (and through it ``scale_down``
  and hybrid keyswitching);
- ``pointwise_mul`` / ``pointwise_mul_acc`` — the NTT-domain Hadamard
  product and the fused multiply-accumulate of the keyswitch inner loop.

Every backend implements the same signatures over one residue matrix
and declares, per kernel, which modulus-width kinds it supports
(``narrow`` < 2^31, ``wide`` < 2^61).  A ``big`` (object-dtype) matrix
dispatches like any other; no backend declares that kind, so it always
lands on the reference engine, whose kernels are exact at any width.

**Exactness contract.**  FHE results must be *bit-exact* across
backends: a residue is a number, not an approximation, and the eval
harnesses pin byte-identical artifacts.  Two mechanisms enforce it:

1. at **activation** a non-reference backend is verified — every
   supported ``(kernel, kind)`` pair runs on deterministic inputs and
   must match the numpy reference bit for bit, else the backend is
   marked broken and dispatch falls back with a warning;
2. under ``REPRO_SANITIZE=1`` every dispatched call is **shadowed** by
   the reference backend and compared elementwise, so a miscompiled or
   width-overflowing kernel surfaces as
   :class:`~repro.errors.InvariantViolation` at the first wrong word.

Selection: ``BITPACKER_BACKEND=numpy|numba|auto`` in the environment
(read lazily), :func:`set_backend` / :func:`use` programmatically, or
``bitpacker-repro figure --backend ...`` on the CLI.  ``auto`` (the
default) prefers the fastest verified backend and silently uses numpy
when nothing else is available; naming an unavailable backend warns
once and falls back rather than raising, so a numba-less install
behaves identically to the pure-numpy tree.
"""

from __future__ import annotations

import os
import warnings
from itertools import islice
from typing import Sequence

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.errors import InvariantViolation, ParameterError
from repro.obs import core as _obs

#: The kernels a backend may implement, in dispatch-signature order.
KERNELS = (
    "ntt_forward",
    "ntt_inverse",
    "bconv_fold",
    "pointwise_mul",
    "pointwise_mul_acc",
)

#: Modulus-width kinds a backend may declare (``big`` is nobody's, so it
#: falls through to the reference engine).
KINDS = ("narrow", "wide")

#: The backend every other backend is checked against.
REFERENCE_BACKEND = "numpy"


class KernelBackend:
    """Base class for kernel execution engines.

    Subclasses set ``name`` and ``priority`` (higher wins under
    ``auto``), fill ``supported`` with ``(kernel, kind)`` pairs, and
    implement the kernel methods below.  All kernels are **pure** — they
    never mutate their inputs — and must return bit-exact results (the
    registry enforces this against the reference backend).
    """

    name: str = ""
    #: ``auto`` picks the verified backend with the highest priority.
    priority: int = 0
    #: ``(kernel, kind)`` pairs this backend can execute.
    supported: frozenset[tuple[str, str]] = frozenset()

    def supports(self, kernel: str, kind: str) -> bool:
        return (kernel, kind) in self.supported

    # -- kernel signatures ---------------------------------------------
    def ntt_forward(self, ctx, mat: np.ndarray) -> np.ndarray:
        """Batched coefficient -> NTT transform of a ``(k, n)`` matrix,
        or of each matrix of an ``(m, k, n)`` stack.

        ``ctx`` is the :class:`repro.nt.ntt.NttRowsContext` holding the
        twiddle tables; row ``i`` of every matrix is reduced mod
        ``ctx.moduli[i]``.
        """
        raise NotImplementedError

    def ntt_inverse(self, ctx, mat: np.ndarray) -> np.ndarray:
        """Batched NTT -> coefficient transform (includes the n^-1 scale);
        takes the same ``(k, n)`` or ``(m, k, n)`` shapes."""
        raise NotImplementedError

    def bconv_fold(
        self,
        stack: np.ndarray,
        weights: np.ndarray,
        dst_moduli: np.ndarray,
        v_bound: int,
        kind: str,
    ) -> np.ndarray:
        """``out[j] = (Σ_i stack[i] · weights[j, i]) mod dst_moduli[j]``.

        ``stack`` is a ``(kk, n)`` uint64 digit matrix with every value
        below ``v_bound``; ``weights`` is ``(m, kk)`` uint64 with row
        ``j`` already reduced mod ``dst_moduli[j]``; all destinations
        share one width ``kind``.  Returns an ``(m, n)`` uint64 matrix
        of fully reduced residues.
        """
        raise NotImplementedError

    def pointwise_mul(
        self, a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
    ) -> np.ndarray:
        """``(a * b) mod q`` elementwise over a ``(k, n)`` row stack."""
        raise NotImplementedError

    def pointwise_mul_acc(
        self,
        acc: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        q_col: np.ndarray,
        kind: str,
    ) -> np.ndarray:
        """``(acc + a * b) mod q`` — the keyswitch inner-loop fused op."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry state
# ----------------------------------------------------------------------
_REGISTRY: dict[str, KernelBackend] = {}
#: Explicit programmatic selection (overrides the environment).
_requested: str | None = None
#: Resolved active backend (cache; ``None`` forces re-resolution).
_active: KernelBackend | None = None
#: Verification status per backend name: True / False (broken).
_verified: dict[str, bool] = {}
#: Verification failure messages per backend name.
_verify_errors: dict[str, list[str]] = {}
#: Names we already warned about falling back from.
_warned: set[str] = set()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (keyed by its name).

    Verification against the reference backend is deferred to first
    activation (:func:`verify_backend`) so registering at import time
    cannot recurse into the kernel modules mid-import.
    """
    if not backend.name:
        raise ParameterError("a kernel backend needs a non-empty name")
    _REGISTRY[backend.name] = backend
    _invalidate()
    return backend


def _invalidate() -> None:
    global _active
    _active = None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, reference first, then by priority."""
    return tuple(
        sorted(
            _REGISTRY,
            key=lambda n: (n != REFERENCE_BACKEND, -_REGISTRY[n].priority, n),
        )
    )


def get_backend(name: str) -> KernelBackend:
    if name not in _REGISTRY:
        known = ", ".join(available_backends())
        raise ParameterError(f"unknown kernel backend {name!r}; known: {known}")
    return _REGISTRY[name]


def _reference() -> KernelBackend:
    return _REGISTRY[REFERENCE_BACKEND]


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def requested_backend() -> str:
    """The selection in force: explicit > ``$BITPACKER_BACKEND`` > auto."""
    if _requested is not None:
        return _requested
    env = os.environ.get("BITPACKER_BACKEND", "").strip().lower()
    return env or "auto"


def set_backend(name: str | None) -> None:
    """Select a backend programmatically (``None`` reverts to env/auto).

    Naming an unregistered or broken backend does not raise here — the
    fallback-with-warning happens at resolution, mirroring the
    environment-variable path.
    """
    global _requested
    if name is not None:
        name = name.strip().lower()
        if name != "auto" and name not in _REGISTRY:
            _warn_once(
                name,
                f"kernel backend {name!r} is not available "
                f"(known: {', '.join(available_backends())}); "
                f"falling back to {REFERENCE_BACKEND}",
            )
    _requested = name
    _invalidate()


class use:
    """Context manager pinning the active backend (tests, benchmarks)."""

    def __init__(self, name: str | None):
        self.name = name
        self._prev: str | None = None

    def __enter__(self):
        global _requested
        self._prev = _requested
        set_backend(self.name)
        return active_backend()

    def __exit__(self, *exc):
        set_backend(self._prev)
        return False


def _warn_once(key: str, message: str) -> None:
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def verify_backend(name: str) -> list[str]:
    """Cross-check ``name`` against the reference backend, bit for bit.

    Runs every supported ``(kernel, kind)`` pair on small deterministic
    inputs and compares elementwise.  The result is cached; a failing
    backend stays registered (so ``bitpacker-repro backends`` can report
    it) but is never dispatched to.  Returns the failure messages
    (empty == verified).
    """
    if name in _verified:
        return list(_verify_errors.get(name, ()))
    backend = get_backend(name)
    if name == REFERENCE_BACKEND:
        _verified[name] = True
        return []
    failures = _crosscheck(backend)
    _verified[name] = not failures
    _verify_errors[name] = failures
    return list(failures)


def backend_status() -> list[dict]:
    """One row per registered backend: name, active?, verified?, support.

    Drives the ``bitpacker-repro backends`` listing.  Verification is
    triggered for every backend so the report reflects reality.
    """
    active = active_backend()
    rows = []
    for name in available_backends():
        backend = _REGISTRY[name]
        errors = verify_backend(name)
        rows.append(
            {
                "name": name,
                "priority": backend.priority,
                "active": backend is active,
                "verified": _verified.get(name, False),
                "verify_errors": errors,
                "supported": sorted(backend.supported),
            }
        )
    return rows


def _resolve() -> KernelBackend:
    """Pick the active backend from the current selection."""
    global _active
    request = requested_backend()
    if request == "auto":
        for name in available_backends():
            if name == REFERENCE_BACKEND:
                continue
            if not verify_backend(name):
                _active = _REGISTRY[name]
                return _active
        _active = _reference()
        return _active
    if request not in _REGISTRY:
        _warn_once(
            request,
            f"BITPACKER_BACKEND={request!r} is not available "
            f"(known: {', '.join(available_backends())}); "
            f"falling back to {REFERENCE_BACKEND}",
        )
        _active = _reference()
        return _active
    failures = verify_backend(request)
    if failures:
        _warn_once(
            request + ":broken",
            f"kernel backend {request!r} failed bit-exactness verification "
            f"({failures[0]}); falling back to {REFERENCE_BACKEND}",
        )
        _active = _reference()
        return _active
    _active = _REGISTRY[request]
    return _active


def active_backend() -> KernelBackend:
    """The backend dispatch currently routes to (resolving lazily)."""
    return _active if _active is not None else _resolve()


def active_name() -> str:
    return active_backend().name


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _select(kernel: str, kind: str) -> KernelBackend:
    backend = _active if _active is not None else _resolve()
    if backend.supports(kernel, kind):
        return backend
    return _reference()


def _shadow_check(kernel: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape or not bool(np.array_equal(got, want)):
        raise InvariantViolation(
            f"backend {active_name()!r} diverged from {REFERENCE_BACKEND} "
            f"on {kernel}: outputs are not bit-identical"
        )


def ntt_forward(ctx, mat: np.ndarray) -> np.ndarray:
    backend = _select("ntt_forward", ctx.kind)
    if _obs.ACTIVE:
        _obs.count(f"kernel.backend.{backend.name}.ntt_forward")
    out = backend.ntt_forward(ctx, mat)
    if _sanitize.ACTIVE and backend.name != REFERENCE_BACKEND:
        _shadow_check("ntt_forward", out, _reference().ntt_forward(ctx, mat))
    return out


def ntt_inverse(ctx, mat: np.ndarray) -> np.ndarray:
    backend = _select("ntt_inverse", ctx.kind)
    if _obs.ACTIVE:
        _obs.count(f"kernel.backend.{backend.name}.ntt_inverse")
    out = backend.ntt_inverse(ctx, mat)
    if _sanitize.ACTIVE and backend.name != REFERENCE_BACKEND:
        _shadow_check("ntt_inverse", out, _reference().ntt_inverse(ctx, mat))
    return out


def bconv_fold(
    stack: np.ndarray,
    weights: np.ndarray,
    dst_moduli: Sequence[int] | np.ndarray,
    v_bound: int,
    kind: str,
) -> np.ndarray:
    dst = np.asarray(dst_moduli, dtype=np.uint64)
    backend = _select("bconv_fold", kind)
    if _obs.ACTIVE:
        _obs.count(f"kernel.backend.{backend.name}.bconv_fold")
    out = backend.bconv_fold(stack, weights, dst, v_bound, kind)
    if _sanitize.ACTIVE and backend.name != REFERENCE_BACKEND:
        _shadow_check(
            "bconv_fold",
            out,
            _reference().bconv_fold(stack, weights, dst, v_bound, kind),
        )
    return out


def pointwise_mul(
    a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
) -> np.ndarray:
    backend = _select("pointwise_mul", kind)
    if _obs.ACTIVE:
        _obs.count(f"kernel.backend.{backend.name}.pointwise_mul")
    out = backend.pointwise_mul(a, b, q_col, kind)
    if _sanitize.ACTIVE and backend.name != REFERENCE_BACKEND:
        _shadow_check(
            "pointwise_mul", out, _reference().pointwise_mul(a, b, q_col, kind)
        )
    return out


def pointwise_mul_acc(
    acc: np.ndarray, a: np.ndarray, b: np.ndarray, q_col: np.ndarray, kind: str
) -> np.ndarray:
    backend = _select("pointwise_mul_acc", kind)
    if _obs.ACTIVE:
        _obs.count(f"kernel.backend.{backend.name}.pointwise_mul_acc")
    out = backend.pointwise_mul_acc(acc, a, b, q_col, kind)
    if _sanitize.ACTIVE and backend.name != REFERENCE_BACKEND:
        _shadow_check(
            "pointwise_mul_acc",
            out,
            _reference().pointwise_mul_acc(acc, a, b, q_col, kind),
        )
    return out


# ----------------------------------------------------------------------
# Verification fixtures
# ----------------------------------------------------------------------
def _crosscheck(backend: KernelBackend) -> list[str]:
    """Bit-exact comparison of ``backend`` against the reference.

    Imports the NTT module lazily — verification runs on first
    activation, never during module import, so the ``repro.nt.ntt ->
    repro.backends`` import edge stays acyclic.
    """
    from repro.nt.ntt import ntt_rows_context
    from repro.nt.primes import (
        ntt_friendly_primes_above,
        ntt_friendly_primes_below,
    )

    reference = _reference()
    failures: list[str] = []
    n = 64
    rng = np.random.default_rng(0xB17)

    def below(bound: int) -> tuple[int, ...]:
        return tuple(islice(ntt_friendly_primes_below(bound, n), 3))

    def above(bound: int) -> tuple[int, ...]:
        return tuple(islice(ntt_friendly_primes_above(bound, n), 3))

    narrow = below(1 << 28)
    wide_top = below(1 << 61)
    wide_bottom = above(1 << 31)
    # ``wide`` is probed where limb carries actually happen — both ends
    # of [2^31, 2^61) — and with a narrow row riding the wide kernel (a
    # single wide row forces it for the whole stack).  ``narrow`` is
    # probed where the reference NTT changes word: up to 4q <= 2^32 it
    # runs in uint32 at beta = 2^32, past it (and for any stack holding
    # such a row) in uint64 at beta = 2^64; the smallest primes are
    # where a quotient estimate has the fewest bits to be right in.
    cases = (
        ("narrow", "narrow", narrow),
        ("narrow<2^30", "narrow", below(1 << 30)),
        ("narrow>2^30", "narrow", above(1 << 30)),
        ("narrow smallest", "narrow", above(2)),
        ("narrow 28+30.5", "narrow", (narrow[0], below(1518500250)[0])),
        ("wide", "wide", below(1 << 55)),
        ("wide<2^61", "wide", wide_top),
        ("wide>2^31", "wide", wide_bottom),
        ("narrow+wide", "wide", (narrow[0], wide_top[0], wide_bottom[0])),
    )

    def check(kernel: str, label: str, got, want) -> None:
        if got.shape != want.shape or not bool(np.array_equal(got, want)):
            failures.append(
                f"{kernel}[{label}]: output differs from {REFERENCE_BACKEND}"
            )

    for label, kind, moduli in cases:
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        mat = np.stack(
            [rng.integers(0, q, n, dtype=np.uint64) for q in moduli]
        )
        other = np.stack(
            [rng.integers(0, q, n, dtype=np.uint64) for q in moduli]
        )
        ctx = ntt_rows_context(moduli, n)
        # All-(q-1) and all-zero rows sit at the two ends of every lazy
        # range a butterfly may ride between stages; the stack is the
        # (m, k, n) shape sibling polynomials arrive in.
        probes = (
            (label, mat),
            (f"{label}, stacked", np.stack([mat, other])),
            (f"{label}, q-1", np.repeat(q_col - np.uint64(1), n, axis=1)),
            (f"{label}, zeros", np.zeros_like(mat)),
        )
        for probe_label, probe in probes:
            if backend.supports("ntt_forward", kind):
                check(
                    "ntt_forward", probe_label,
                    backend.ntt_forward(ctx, probe),
                    reference.ntt_forward(ctx, probe),
                )
            if backend.supports("ntt_inverse", kind):
                check(
                    "ntt_inverse", probe_label,
                    backend.ntt_inverse(ctx, probe),
                    reference.ntt_inverse(ctx, probe),
                )
        if backend.supports("pointwise_mul", kind):
            check(
                "pointwise_mul", label,
                backend.pointwise_mul(mat, other, q_col, kind),
                reference.pointwise_mul(mat, other, q_col, kind),
            )
        if backend.supports("pointwise_mul_acc", kind):
            check(
                "pointwise_mul_acc", label,
                backend.pointwise_mul_acc(other, mat, other, q_col, kind),
                reference.pointwise_mul_acc(other, mat, other, q_col, kind),
            )
        if backend.supports("bconv_fold", kind):
            # Digits from a foreign source basis folded into this kind's
            # destinations — the shape base_convert emits.  Wide probes
            # take 61-bit digits, so they exceed every smaller
            # destination unreduced.
            src = narrow if kind == "narrow" else wide_top
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
            check(
                "bconv_fold", label,
                backend.bconv_fold(stack, weights, dst, bound, kind),
                reference.bconv_fold(stack, weights, dst, bound, kind),
            )
    if backend.supports("bconv_fold", "narrow"):
        # The bootstrap's shape — 47 digit rows onto 46 28-bit
        # destinations — where the reference fold is one uint64 matrix
        # product, so an engine is verified against that path too.
        primes = tuple(islice(ntt_friendly_primes_below(1 << 28, n), 47))
        bound, dst = primes[0], np.array(primes[1:], dtype=np.uint64)
        stack = rng.integers(0, bound, (47, n), dtype=np.uint64)
        weights = np.stack(
            [rng.integers(0, p, 47, dtype=np.uint64) for p in primes[1:]]
        )
        check(
            "bconv_fold", "narrow 47->46",
            backend.bconv_fold(stack, weights, dst, bound, "narrow"),
            reference.bconv_fold(stack, weights, dst, bound, "narrow"),
        )
    return failures


def _reset_for_tests() -> None:
    """Drop all cached selection/verification state (test isolation)."""
    global _requested
    _requested = None
    _verified.clear()
    _verify_errors.clear()
    _warned.clear()
    _invalidate()


# ----------------------------------------------------------------------
# Built-in backends.  The numpy reference always registers; the numba
# fast path registers only when the optional extra is importable —
# a numba-less install keeps the registry at exactly {numpy}.
# ----------------------------------------------------------------------
from repro.backends.numpy_backend import NumpyBackend  # noqa: E402

register_backend(NumpyBackend())

from repro.backends import numba_backend as _numba_backend  # noqa: E402

if _numba_backend.AVAILABLE:
    register_backend(_numba_backend.NumbaBackend())

__all__ = [
    "KERNELS",
    "KINDS",
    "REFERENCE_BACKEND",
    "KernelBackend",
    "active_backend",
    "active_name",
    "available_backends",
    "backend_status",
    "bconv_fold",
    "get_backend",
    "ntt_forward",
    "ntt_inverse",
    "pointwise_mul",
    "pointwise_mul_acc",
    "register_backend",
    "requested_backend",
    "set_backend",
    "use",
    "verify_backend",
]
