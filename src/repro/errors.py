"""Exception hierarchy for the BitPacker reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
:func:`json_field` is the typed-field reader both JSON decoders (trace
files and profile documents) share: a missing or mistyped field is one
:class:`ParameterError` line.
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


def json_field(document: str, data, key: str, types: tuple, where: str,
               *, optional: bool = False):
    """``data[key]`` from a decoded JSON ``document`` if it is one of
    ``types`` (a bool is never a number); ``None`` for an absent or null
    ``optional`` key.  Anything else is one :class:`ParameterError` line,
    ``malformed <document> encoding: <where> ...``."""
    prefix = f"malformed {document} encoding: {where}"
    if not isinstance(data, dict):
        raise ParameterError(f"{prefix} is not an object")
    value = data.get(key)
    if value is None and optional:
        return None
    if key not in data:
        raise ParameterError(f"{prefix} has no {key!r}")
    if not isinstance(value, types) or isinstance(value, bool):
        noun = {(int,): "an integer", (int, float): "a number"}.get(
            types, f"a {types[0].__name__}"
        )
        raise ParameterError(
            f"{prefix} {key!r} must be {noun}, not {type(value).__name__}"
        )
    return value
