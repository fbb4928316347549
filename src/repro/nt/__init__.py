"""Number-theory substrate: primality, modular vector math, NTT, CRT.

This package is self-contained (depends only on numpy) and provides the
exact arithmetic primitives every higher layer builds on:

- :mod:`repro.nt.primes` — Miller–Rabin primality and NTT-friendly prime
  enumeration (primes ``p ≡ 1 (mod 2N)``, paper Sec. 3.3).
- :mod:`repro.nt.modmath` — elementwise modular arithmetic on vectors with
  a fast ``uint64`` backend for moduli below 2^31 and an exact big-int
  backend for wider moduli (up to the 64-bit words the paper sweeps).
- :mod:`repro.nt.ntt` — negacyclic number-theoretic transform over
  ``Z_q[X]/(X^N + 1)`` with cached twiddle tables.
- :mod:`repro.nt.crt` — Chinese-remainder reconstruction and centered
  representatives, used for exact decode and for test oracles.
"""

from repro.nt.crt import (
    centered,
    centered_vector,
    crt_reconstruct,
    crt_reconstruct_vector,
)
from repro.nt.modmath import (
    BIG_MODULUS_THRESHOLD,
    as_mod_array,
    dtype_for_modulus,
    mod_add,
    mod_inv,
    mod_mul,
    mod_neg,
    mod_pow,
    mod_scalar_mul,
    mod_sub,
    uniform_mod,
)
from repro.nt.ntt import NttRowsContext, ntt_context
from repro.nt.primes import (
    all_ntt_friendly_primes,
    is_ntt_friendly,
    is_prime,
    ntt_friendly_primes_below,
    terminal_prime_candidates,
)

__all__ = [
    "is_prime",
    "is_ntt_friendly",
    "ntt_friendly_primes_below",
    "all_ntt_friendly_primes",
    "terminal_prime_candidates",
    "BIG_MODULUS_THRESHOLD",
    "dtype_for_modulus",
    "as_mod_array",
    "mod_add",
    "mod_sub",
    "mod_neg",
    "mod_mul",
    "mod_scalar_mul",
    "mod_inv",
    "mod_pow",
    "uniform_mod",
    "NttRowsContext",
    "ntt_context",
    "crt_reconstruct",
    "crt_reconstruct_vector",
    "centered",
    "centered_vector",
]
