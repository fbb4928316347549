"""Runtime invariant sanitizer for the RNS/CKKS hot paths.

The static passes catch hazards visible in source; this module catches
the ones only visible in live data — a residue at or above its modulus,
a matrix stored in the wrong dtype for its basis, NTT-domain tags mixed
across a ciphertext pair.  It is the *checker* on the one
instrumentation seam (:mod:`repro.obs.core`, DESIGN.md Sec. 9): the
batched NTTs and :func:`~repro.rns.convert.base_convert` hand it their
matrices, :class:`~repro.rns.poly.RnsPolynomial` and
:class:`~repro.ckks.ciphertext.Ciphertext` construction what they
built (every homomorphic op constructs new values, so this checks every
op), and every evaluator op its result for the op log.  No hot module
imports this one; detached, a site costs one switch test.

Attach with ``REPRO_SANITIZE=1`` (read when this module is imported,
which ``import repro`` does whenever the variable is set) or
:func:`enable`/:func:`disable`.  Violations raise
:class:`repro.errors.InvariantViolation`.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import InvariantViolation
from repro.obs import core as _obs


def _env_active(value: str | None) -> bool:
    """Whether an ``REPRO_SANITIZE`` environment value turns checks on."""
    if value is None:
        return False
    return value.strip().lower() not in ("", "0", "false", "no", "off")


#: Counters proving what ran: ``checks`` increments once per executed
#: check call (never when detached), ``violations`` once per raise.
STATS = {"checks": 0, "violations": 0}

_SELF = sys.modules[__name__]


def enable() -> None:
    """Attach the sanitizer to the hot boundaries for this process."""
    _obs.attach_checker(_SELF)


def disable() -> None:
    """Detach the sanitizer."""
    _obs.attach_checker(None)


def enabled() -> bool:
    return _obs.checker() is _SELF


def reset_stats() -> None:
    STATS.update(checks=0, violations=0)


def _fail(message: str) -> None:
    STATS["violations"] += 1
    raise InvariantViolation(message)


# ----------------------------------------------------------------------
# Checks.  The seam calls these only while the sanitizer is attached.
# ----------------------------------------------------------------------
def check_residue_matrix(mat: np.ndarray, moduli, where: str) -> None:
    """A ``(k, n)`` residue matrix, or an ``(m, k, n)`` stack of them:
    right dtype, every row in ``[0, q_i)``.

    The dtype follows the widest modulus — uint64 below 2^61, object
    (plain Python ints, never numpy scalars) once any modulus is wider.
    """
    # Imported lazily: attaching the sanitizer must not import the
    # number-theory stack.
    from repro.nt.modmath import dtype_for_modulus

    STATS["checks"] += 1
    moduli = [int(q) for q in moduli]
    expected = np.dtype(dtype_for_modulus(max(moduli)))
    if mat.dtype != expected:
        _fail(
            f"{where}: moduli up to {max(moduli).bit_length()}b need a "
            f"{expected.name} residue matrix, got {mat.dtype}"
        )
    if mat.ndim < 2 or mat.shape[-2] != len(moduli):
        _fail(f"{where}: shape {mat.shape} has no {len(moduli)} rows, one per modulus")
    if expected == object:
        for stack in mat.reshape(-1, *mat.shape[-2:]):
            for row, q in zip(stack, moduli):
                for v in row:
                    if not isinstance(v, int) or not 0 <= v < q:
                        _fail(f"{where}: residue {v!r} outside [0, {q}) or not an int")
        return
    q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    unreduced = (mat >= q_col).any(axis=-1)
    if bool(unreduced.any()):
        i = int(np.argwhere(unreduced)[0][-1])
        worst = int(mat[..., i, :].max())
        _fail(f"{where}: unreduced residue {worst} >= modulus {moduli[i]}")


# ----------------------------------------------------------------------
# Per-op observation log.  The static verifier
# (:mod:`repro.analysis.absint`) predicts an interval for every op's
# result scale and level; :func:`record_ops` captures what the evaluator
# actually produced so :func:`~repro.analysis.absint.check_observations`
# can assert containment — the static and runtime layers checking each
# other.  Guarded by a *separate* flag so plain ``REPRO_SANITIZE=1``
# test shards never grow an unbounded list.
# ----------------------------------------------------------------------

#: Whether evaluator hook sites append to the op log.  Only
#: :func:`record_ops` sets this; ``REPRO_SANITIZE=1`` alone does not.
RECORDING = False

_OP_LOG: list["OpObservation"] = []


@dataclass(frozen=True)
class OpObservation:
    """What one evaluator op actually produced: its result's level/scale."""

    kind: str
    level: int
    scale_bits: float


def _log2_fraction(scale) -> float:
    # Realized scales are exact Fractions whose parts overflow float
    # (2^600-bit numerators at the top of a deep chain): take log2 of
    # numerator and denominator as big ints.
    num, den = scale.numerator, scale.denominator
    return math.log2(num) - math.log2(den)


def observe_op(kind: str, ct) -> None:
    """Seam call: record an evaluator op's result (no-op unless recording)."""
    if not RECORDING:
        return
    _OP_LOG.append(
        OpObservation(
            kind=kind, level=ct.level, scale_bits=_log2_fraction(ct.scale)
        )
    )


@contextlib.contextmanager
def record_ops() -> Iterator[list[OpObservation]]:
    """Sanitize-and-record scope: yields the live observation list.

    Attaches the sanitizer (the observations ride on the seam's op
    calls) and starts per-op recording; both are restored on exit.  The
    yielded list is the module log itself, appended to as ops execute.
    """
    global RECORDING
    prior_checker, prior_recording = _obs.checker(), RECORDING
    enable()
    RECORDING = True
    _OP_LOG.clear()
    try:
        yield _OP_LOG
    finally:
        _obs.attach_checker(prior_checker)
        RECORDING = prior_recording


def check_ciphertext(ct) -> None:
    """Structural ciphertext invariants after an evaluator op."""
    STATS["checks"] += 1
    if ct.c0.basis != ct.c1.basis:
        _fail(
            f"Ciphertext: c0/c1 basis mismatch ({ct.c0.basis} vs {ct.c1.basis})"
        )
    if ct.c0.domain != ct.c1.domain:
        _fail(
            f"Ciphertext: c0 in {ct.c0.domain!r} domain but c1 in "
            f"{ct.c1.domain!r} — NTT-domain tags must agree across the pair"
        )
    if ct.level < 0:
        _fail(f"Ciphertext: negative level {ct.level}")
    if ct.scale <= 0:
        _fail(f"Ciphertext: non-positive scale {ct.scale}")


if _env_active(os.environ.get("REPRO_SANITIZE")):
    enable()
