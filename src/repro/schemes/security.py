"""Security parameter table for R-LWE (paper Sec. 3.4).

CKKS security is governed by the ratio ``N / log2(Q·P)``: for a given
ring degree there is a maximum total modulus width compatible with a
target security level.  The 128-bit column follows the Homomorphic
Encryption Standard's classical estimates for ternary secrets; the
80-bit column is extrapolated with the standard linear ``log Q ∝ 1/λ``
rule used by lattice estimators (the paper evaluates both 128-bit and
80-bit parameter points, Sec. 6.1).

BitPacker, RNS-CKKS, and non-RNS CKKS all share this constraint: only
``log2 Q_max`` matters, not how ``Q`` is factored into residues.
"""

from __future__ import annotations

from repro.errors import ParameterError

#: Maximum log2(Q*P) for 128-bit classical security, ternary secrets
#: (Homomorphic Encryption Standard).
MAX_LOG_QP_128 = {
    1024: 27,
    2048: 54,
    4096: 109,
    8192: 218,
    16384: 438,
    32768: 881,
    65536: 1772,
}

#: Extrapolated 80-bit values (log Q scales ~ 128/80 at fixed N).
MAX_LOG_QP_80 = {n: round(v * 128 / 80) for n, v in MAX_LOG_QP_128.items()}

_TABLES = {128: MAX_LOG_QP_128, 80: MAX_LOG_QP_80}


def max_log_qp(n: int, security_bits: int = 128) -> int:
    """Maximum total modulus width (bits) for degree ``n``."""
    table = _TABLES.get(security_bits)
    if table is None:
        raise ParameterError(
            f"no security table for {security_bits}-bit level "
            f"(available: {sorted(_TABLES)})"
        )
    if n not in table:
        raise ParameterError(f"no security entry for ring degree {n}")
    return table[n]

