"""Functional bootstrapping substitute.

The paper uses Lattigo's BS19/BS26 bootstrapping algorithms, which
homomorphically evaluate a modular-reduction polynomial and restore a
low-level ciphertext to a high level with 19 or 26 bits of end-to-end
precision (Sec. 5).  A full homomorphic EvalMod pipeline is far outside
what the evaluation here needs — the paper consumes bootstrapping as
(a) an *operation sequence* with known scales for the performance model
(see :mod:`repro.workloads.bootstrap_model`) and (b) a *precision floor*
for the accuracy experiments.  This module supplies (b): a re-encryption
bootstrap that restores the level exactly like the real procedure and
injects noise calibrated to the chosen algorithm's output precision.

This is the substitution documented in DESIGN.md; it preserves both the
level/scale trajectory (Fig. 3) and the precision behaviour (Table 1) of
real bootstrapping while remaining honest about not being one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.context import CkksContext


@dataclass(frozen=True)
class BootstrapAlgorithm:
    """Precision profile of a bootstrapping algorithm (paper Sec. 5)."""

    name: str
    precision_bits: float
    #: Scales (bits) used by the bootstrap's internal stages; consumed by
    #: the performance model, recorded here for completeness.
    stage_scale_bits: tuple[float, ...]


#: Lattigo's two bootstrapping configurations as characterized in Sec. 5.
BS19 = BootstrapAlgorithm(name="BS19", precision_bits=19.0,
                          stage_scale_bits=(52.0, 55.0, 30.0))
BS26 = BootstrapAlgorithm(name="BS26", precision_bits=26.0,
                          stage_scale_bits=(54.0, 60.0, 40.0))


class FunctionalBootstrapper:
    """Restores ciphertext level with a calibrated precision floor.

    Uses the context's secret key internally (decrypt, clamp precision,
    re-encrypt at the chain's top level).  Only valid in experiments — a
    deployment would run the real homomorphic pipeline whose cost the
    accelerator model accounts.
    """

    def __init__(self, ctx: CkksContext, algorithm: BootstrapAlgorithm = BS19):
        self.ctx = ctx
        self.algorithm = algorithm

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Return a high-level ciphertext encrypting the same values.

        The re-encrypted values carry additive Gaussian noise with
        standard deviation ``2^-precision_bits``, matching the end-to-end
        precision of the emulated algorithm.
        """
        values = self.ctx.decrypt(ct)
        sigma = 2.0 ** -self.algorithm.precision_bits
        rng = self.ctx.rng
        noisy = values + (
            rng.normal(0.0, sigma, values.shape)
            + 1j * rng.normal(0.0, sigma, values.shape)
        )
        return self.ctx.encrypt(noisy)
