"""BitPacker (ASPLOS 2024) reproduction.

A from-scratch Python implementation of the paper's full stack:

- :mod:`repro.nt`, :mod:`repro.rns` — exact number-theory and RNS
  substrates (NTT, base conversion, scale-up/scale-down).
- :mod:`repro.ckks` — a functional CKKS library (encoding, encryption,
  homomorphic evaluation with hybrid keyswitching).
- :mod:`repro.schemes` — the two chain planners under comparison
  (baseline RNS-CKKS and BitPacker) and the one level-management
  routine their chains share.
- :mod:`repro.accel` — a CraterLake-class accelerator performance,
  energy, and area model with word-size sweeps.
- :mod:`repro.cpu` — a CPU cost model (paper Fig. 13).
- :mod:`repro.workloads` — the five benchmark applications as
  homomorphic-operation trace generators plus bootstrap op models.
- :mod:`repro.eval` — one harness per paper figure/table.
"""

import os as _os

from repro.ckks import CkksContext
from repro.ckks.bootstrap import BS19, BS26, FunctionalBootstrapper
from repro.schemes import (
    ModulusChain,
    plan_bitpacker_chain,
    plan_chain,
    plan_rns_ckks_chain,
)

__version__ = "1.0.0"

if _os.environ.get("REPRO_SANITIZE"):
    # The sanitizer reads REPRO_SANITIZE and attaches itself to the
    # instrumentation seam when imported; no hot module imports it.
    from repro.analysis import sanitize as _sanitize  # noqa: F401

__all__ = [
    "CkksContext",
    "BS19",
    "BS26",
    "FunctionalBootstrapper",
    "ModulusChain",
    "plan_rns_ckks_chain",
    "plan_bitpacker_chain",
    "plan_chain",
    "__version__",
]
