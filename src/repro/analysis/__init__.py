"""fhelint: static + runtime correctness tooling for the RNS/CKKS stack.

Two layers share this package:

- **Static** (:mod:`~repro.analysis.core` and the pass modules): an
  AST-based lint engine whose passes know this codebase's hazards —
  uint64 overflow outside :mod:`repro.nt.modmath`, hand-rolled dtype
  routing, exception hygiene, discarded asyncio tasks — run via
  ``bitpacker-repro lint`` or :func:`run_lint`; and a schedule verifier
  (:mod:`~repro.analysis.absint`) for FHE-program bugs in traces, run
  via ``bitpacker-repro verify-trace``.
- **Dynamic** (:mod:`~repro.analysis.sanitize`): cheap invariant checks
  that attach to the instrumentation seam (:mod:`repro.obs.core`) when
  ``REPRO_SANITIZE=1`` is set or :func:`sanitize.enable` is called.  No
  hot module imports it: the seam calls into it only while attached.
"""

from repro.analysis import sanitize
from repro.analysis.absint import (
    VerifyResult,
    verify_or_raise,
    verify_trace,
)
from repro.analysis.core import (
    PASSES,
    Finding,
    render_report,
    run_lint,
)

__all__ = [
    "PASSES",
    "Finding",
    "VerifyResult",
    "render_report",
    "run_lint",
    "sanitize",
    "verify_or_raise",
    "verify_trace",
]
