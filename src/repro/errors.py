"""Exception hierarchy for the BitPacker reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ParameterError(ReproError):
    """Invalid or inconsistent scheme / machine parameters."""


class PlanningError(ReproError):
    """Modulus-chain planning failed.

    Raised, e.g., when no combination of NTT-friendly primes can meet a
    target scale within the required tolerance (paper Sec. 3.3), or when
    RNS-CKKS cannot realize a requested scale at a narrow word size.
    """


class LevelExhaustedError(ReproError):
    """A homomorphic operation was requested below level 0.

    In a real deployment this is where bootstrapping would be required;
    the workloads insert bootstraps before this can trigger.
    """


class ScaleMismatchError(ReproError):
    """Two ciphertexts with incompatible scales or moduli were combined."""


class NotOnChainError(ReproError):
    """A ciphertext's modulus set does not correspond to any chain level."""


class SimulationError(ReproError):
    """The accelerator model was driven with an inconsistent trace."""


class ScheduleViolationError(ReproError):
    """A trace failed static schedule verification.

    Raised by :func:`repro.analysis.absint.verify_or_raise` — the
    pre-flight gate the eval harnesses run before pricing a trace.  A
    deterministic :class:`ReproError`, so the experiment runner reports
    it instead of retrying.
    """


class InvariantViolation(ReproError):
    """A runtime sanitizer check failed (see :mod:`repro.analysis.sanitize`).

    Raised only when the sanitizer is active (``REPRO_SANITIZE=1`` or
    :func:`repro.analysis.sanitize.enable`); with it disabled the checks
    are skipped entirely, so library hot paths pay nothing.
    """
