"""fhelint: static + runtime correctness tooling for the RNS/CKKS stack.

Two layers share this package:

- **Static** (:mod:`~repro.analysis.core` and the pass modules): an
  AST-based lint engine whose passes know this codebase's hazards —
  uint64 overflow outside :mod:`repro.nt.modmath`, hand-rolled dtype
  routing, exception-hygiene violations — plus a schedule verifier
  (:mod:`~repro.analysis.absint`) for FHE-program bugs in traces.
  Run it via ``bitpacker-repro lint`` or :func:`run_lint`.
- **Dynamic** (:mod:`~repro.analysis.sanitize`): cheap invariant checks
  wired into polynomial/NTT/ciphertext construction, enabled by
  ``REPRO_SANITIZE=1`` and free when off.

This ``__init__`` stays light: the hot-path modules (``rns.poly`` and
friends) import :mod:`repro.analysis.sanitize` through it, so nothing
here may import back into the RNS/CKKS stack.
"""

from repro.analysis import sanitize
from repro.analysis.absint import (
    VerifyResult,
    verify_or_raise,
    verify_trace,
    verify_traces,
)
from repro.analysis.core import (
    Finding,
    LintPass,
    all_passes,
    register,
    render_report,
    run_lint,
)

__all__ = [
    "Finding",
    "LintPass",
    "VerifyResult",
    "all_passes",
    "register",
    "render_report",
    "run_lint",
    "sanitize",
    "verify_or_raise",
    "verify_trace",
    "verify_traces",
]
