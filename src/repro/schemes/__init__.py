"""Level management schemes: baseline RNS-CKKS and BitPacker.

Both planners consume the same program constraints (Fig. 8: per-level
target scales, base modulus, word size, security cap) and emit a
:class:`~repro.schemes.chain.ModulusChain`; the schemes differ in which
moduli a level holds and in nothing else, so the evaluator, the cost
models and the workloads run one level-management routine on both.
"""

from repro.errors import ParameterError
from repro.schemes.bitpacker import greedy_terminal_primes, plan_bitpacker_chain
from repro.schemes.chain import (
    LevelMove,
    LevelSpec,
    ModulusChain,
    chain_from_dict,
    chain_to_dict,
)
from repro.schemes.rns_ckks import plan_rns_ckks_chain
from repro.schemes.security import check_security, max_log_qp, required_degree

__all__ = [
    "LevelMove",
    "LevelSpec",
    "ModulusChain",
    "chain_from_dict",
    "chain_to_dict",
    "plan_chain",
    "plan_rns_ckks_chain",
    "greedy_terminal_primes",
    "plan_bitpacker_chain",
    "check_security",
    "max_log_qp",
    "required_degree",
]


def plan_chain(scheme: str, *args, **kwargs) -> ModulusChain:
    """Plan a chain by scheme name (``"rns-ckks"`` or ``"bitpacker"``)."""
    if scheme == "rns-ckks":
        return plan_rns_ckks_chain(*args, **kwargs)
    if scheme == "bitpacker":
        return plan_bitpacker_chain(*args, **kwargs)
    raise ParameterError(f"unknown scheme {scheme!r}")
