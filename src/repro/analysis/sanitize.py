"""Runtime invariant sanitizer for the RNS/CKKS hot paths.

The static passes catch hazards visible in source; this module catches
the ones only visible in live data — a residue at or above its modulus,
a matrix stored in the wrong dtype for its basis, NTT-domain tags mixed
across a ciphertext pair.  Hook points sit inside
:class:`~repro.rns.poly.RnsPolynomial` construction, the batched NTT
entry points, :func:`~repro.rns.convert.base_convert`, and
:class:`~repro.ckks.ciphertext.Ciphertext` construction; because every
homomorphic operation constructs new values, checking construction
checks every op.

Cost model: each hook site is guarded by ``if sanitize.ACTIVE:`` — one
module-attribute read and a branch when disabled, no numpy work and no
function call, so the PR-1 benchmark numbers are untouched.  When
enabled the checks are vectorized comparisons (``(row < q).all()``),
cheap next to the arithmetic they guard.

Enable with ``REPRO_SANITIZE=1`` in the environment (read at import
time) or :func:`enable` / :func:`disable` at runtime.  Violations raise
:class:`repro.errors.InvariantViolation`.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import InvariantViolation


def _env_active(value: str | None) -> bool:
    """Whether an ``REPRO_SANITIZE`` environment value turns checks on."""
    if value is None:
        return False
    return value.strip().lower() not in ("", "0", "false", "no", "off")


#: The master switch.  Hook sites read this attribute directly
#: (``if sanitize.ACTIVE: ...``) so the disabled path is a single branch.
ACTIVE = _env_active(os.environ.get("REPRO_SANITIZE"))

#: Counters proving what ran: ``checks`` increments once per executed
#: check call (never when disabled), ``violations`` once per raise.
STATS = {"checks": 0, "violations": 0}


def enable() -> None:
    """Turn the sanitizer on for this process."""
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    """Turn the sanitizer off (hook sites go back to a dead branch)."""
    global ACTIVE
    ACTIVE = False


def enabled() -> bool:
    return ACTIVE


def reset_stats() -> None:
    STATS["checks"] = 0
    STATS["violations"] = 0


def _fail(message: str) -> None:
    STATS["violations"] += 1
    raise InvariantViolation(message)


# ----------------------------------------------------------------------
# Checks.  Callers guard with ``if sanitize.ACTIVE`` so these bodies
# only ever run in sanitize mode.
# ----------------------------------------------------------------------
def check_residue_matrix(mat: np.ndarray, moduli, where: str) -> None:
    """A ``(k, n)`` residue matrix, or an ``(m, k, n)`` stack of them:
    right dtype, every row in ``[0, q_i)``.

    The dtype follows the widest modulus — uint64 below 2^61, object
    (plain Python ints, never numpy scalars) once any modulus is wider.
    """
    # Imported lazily: nt.ntt hooks into this module, so a module-level
    # modmath import would close an import cycle through repro.nt.
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
    """Hook site: record an evaluator op's result (no-op unless recording)."""
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

    Turns the sanitizer on (the observations ride on its hook sites) and
    starts per-op recording; both are restored on exit.  The yielded
    list is the module log itself, appended to as ops execute.
    """
    global ACTIVE, RECORDING
    prior_active, prior_recording = ACTIVE, RECORDING
    ACTIVE, RECORDING = True, True
    _OP_LOG.clear()
    try:
        yield _OP_LOG
    finally:
        ACTIVE, RECORDING = prior_active, prior_recording


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
