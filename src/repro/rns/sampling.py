"""Random polynomials for CKKS key generation and encryption.

CKKS needs three distributions (paper Fig. 2 and Sec. 3.4):

- uniform polynomials over the full modulus (the ``a`` component of
  public and keyswitch keys),
- ternary secrets (coefficients in ``{-1, 0, 1}``), and
- discrete Gaussian errors (the encryption noise that protects the
  scheme and bounds its precision).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.nt import modmath
from repro.rns.basis import RnsBasis
from repro.rns.poly import NTT, RnsPolynomial

#: Standard deviation of the encryption error, the value used by the
#: homomorphic encryption standard and by Lattigo/OpenFHE.
DEFAULT_SIGMA = 3.2


def sample_uniform(
    basis: RnsBasis, rng: np.random.Generator, domain: str = NTT
) -> RnsPolynomial:
    """Uniformly random polynomial over ``Z_Q[X]/(X^n+1)``.

    Sampling each residue row independently and uniformly is exactly
    uniform over ``Z_Q`` by CRT; because the NTT is a bijection, sampling
    directly in NTT form is equally valid and saves the transforms.
    """
    mat = np.empty((basis.size, basis.n), dtype=np.uint64)
    for i, q in enumerate(basis.moduli):
        mat[i] = modmath.uniform_mod(q, basis.n, rng)
    return RnsPolynomial(basis, mat, domain)


def sample_ternary_coeffs(
    n: int, rng: np.random.Generator, hamming_weight: int | None = None
) -> np.ndarray:
    """Ternary secret coefficients in ``{-1, 0, 1}``, as an int64 vector.

    With ``hamming_weight`` set, exactly that many coefficients are
    nonzero (sparse secrets, as used by bootstrapping-oriented parameter
    sets); otherwise each coefficient is uniform over the three values.
    """
    if hamming_weight is None:
        return rng.integers(0, 3, size=n) - 1
    if not 0 < hamming_weight <= n:
        raise ParameterError(f"hamming weight {hamming_weight} out of range for n={n}")
    coeffs = np.zeros(n, dtype=np.int64)
    positions = rng.choice(n, size=hamming_weight, replace=False)
    signs = rng.integers(0, 2, size=hamming_weight)
    coeffs[positions] = np.where(signs != 0, 1, -1)
    return coeffs


def sample_gaussian_coeffs(
    n: int, rng: np.random.Generator, sigma: float = DEFAULT_SIGMA
) -> np.ndarray:
    """Discrete Gaussian error coefficients (rounded continuous Gaussian),
    as an int64 vector."""
    return np.rint(rng.normal(0.0, sigma, size=n)).astype(np.int64)


def sample_ternary(basis: RnsBasis, rng: np.random.Generator) -> RnsPolynomial:
    """Uniform ternary polynomial lifted onto ``basis`` (coefficient
    domain)."""
    return RnsPolynomial.from_int_coeffs(basis, sample_ternary_coeffs(basis.n, rng))


def sample_gaussian(
    basis: RnsBasis, rng: np.random.Generator, sigma: float = DEFAULT_SIGMA
) -> RnsPolynomial:
    """Discrete Gaussian polynomial lifted onto ``basis`` (coeff domain)."""
    return RnsPolynomial.from_int_coeffs(
        basis, sample_gaussian_coeffs(basis.n, rng, sigma)
    )
