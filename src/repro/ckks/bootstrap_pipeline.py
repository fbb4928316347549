"""A genuine homomorphic bootstrap at laptop-scale parameters.

Composes the real homomorphic stages — ModRaise, CoeffToSlot
(:mod:`repro.ckks.homdft`), EvalMod (:mod:`repro.ckks.evalmod`), and
SlotToCoeff — into the textbook CKKS bootstrapping pipeline:

1. **ModRaise**: reinterpret a level-0 ciphertext's residues over the
   full modulus chain.  It now decrypts to ``m + q0·I`` where ``I`` is a
   small integer polynomial (``‖I‖ <= (h+1)/2`` for a sparse ternary
   secret of Hamming weight ``h`` — the reason bootstrapping parameter
   sets use sparse secrets).
2. **CtS**: move coefficients into slots; each slot now holds
   ``(m_k + q0·I_k)/S``.  One level, plus one for the adjust that puts
   the mod-raised scale back on the chain's canonical one.
3. **EvalMod**: the Chebyshev sine approximation maps ``I_k + ε`` to
   ``ε = m_k/q0``.  Both unit changes ride it for free — ``× S/q0`` on
   its ``1/K`` normalization multiply, ``× q0/S`` on its Chebyshev
   coefficients — so it costs ``⌈log2 degree⌉ + 2`` levels: normalize
   (1), product tree (5 at degree 27), weighted sum (1).
4. **StC**: repack slots into coefficients (one level), yielding a
   *high-level* ciphertext encrypting ``m`` again.

Ten levels in all at the default degree 27.  Precision is limited by the
sine approximation error amplified by ``q0/S`` (Sec. 2.2's reason
bootstrap stages use large scales); with the demo parameters below it
refreshes 12-14 error-free bits, enough to show every stage working end
to end and to keep computing afterwards.  The production-accuracy
BS19/BS26 configurations remain modeled by
:class:`repro.ckks.bootstrap.FunctionalBootstrapper` and
:mod:`repro.workloads.bootstrap_model` (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.context import CkksContext
from repro.ckks.evalmod import EvalModConfig, depth_required, eval_mod
from repro.ckks.homdft import coeff_to_slot, slot_to_coeff
from repro.errors import ParameterError
from repro.nt.floatext import fraction_to_longdouble
from repro.rns.poly import RnsPolynomial


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the demonstration pipeline."""

    evalmod: EvalModConfig = EvalModConfig(k_range=2, degree=27)

    @property
    def depth(self) -> int:
        """Levels consumed: CtS (1) + scale re-canonicalization (1) +
        EvalMod (which carries both normalizations) + StC (1)."""
        return depth_required(self.evalmod) + 3

    def required_hamming_weight(self) -> int:
        """Largest sparse-secret weight the k_range bound supports.

        ``‖I‖ <= (h+1)/2`` and ``I`` is an integer, so weight ``2k``
        keeps every overflow count within ``±k``.
        """
        return 2 * self.evalmod.k_range


def mod_raise(ctx: CkksContext, ct: Ciphertext, target_level: int) -> Ciphertext:
    """Reinterpret a bottom-level ciphertext over a larger modulus.

    The centered residue representatives are lifted verbatim onto the
    target level's basis, so decryption now yields ``m + q0·I`` for a
    small integer polynomial ``I`` (the textbook ModRaise).
    """
    if ct.level != 0:
        raise ParameterError("mod_raise expects a level-0 ciphertext")
    basis = ctx.chain.basis_at(target_level)
    c0 = RnsPolynomial.from_int_coeffs(basis, ct.c0.to_int_coeffs())
    c1 = RnsPolynomial.from_int_coeffs(basis, ct.c1.to_int_coeffs())
    return Ciphertext(c0=c0, c1=c1, level=target_level, scale=ct.scale)


def bootstrap_homomorphic(
    ctx: CkksContext,
    ct: Ciphertext,
    config: PipelineConfig = PipelineConfig(),
) -> Ciphertext:
    """Refresh a level-0 ciphertext without touching the secret key."""
    chain = ctx.chain
    ev = ctx.evaluator
    if chain.max_level < config.depth:
        raise ParameterError(
            f"pipeline needs {config.depth} levels, chain has {chain.max_level}"
        )
    q0 = chain.q_product_at(0)
    scale = float(fraction_to_longdouble(ct.scale))

    # 1. ModRaise to the top of the chain.
    raised = mod_raise(ctx, ct, chain.max_level)

    # 2. CtS: coefficients (m + q0*I) / S land in the slots of two cts.
    first, second = coeff_to_slot(ev, raised)

    # 3. EvalMod both halves.  Its input factor S/q0 makes the slots
    # read I_k + m_k/q0; its output factor q0/S brings the result back
    # to value units.  The CtS output inherits the *bottom* level's
    # scale through the mod-raise, so it sits off the chain's canonical
    # scale by S_0/S_top; a one-level adjust folds that factor away
    # before the polynomial evaluation would amplify it (T_k would
    # drift by (S_0/S_top)^k).
    refreshed = [
        eval_mod(
            ev, ev.adjust(half, half.level - 1), config.evalmod,
            scale / q0, q0 / scale,
        )
        for half in (first, second)
    ]

    # 4. StC: repack the two coefficient halves into one ciphertext.
    lo = min(refreshed[0].level, refreshed[1].level)
    out = slot_to_coeff(
        ev, ev.adjust(refreshed[0], lo), ev.adjust(refreshed[1], lo)
    )
    return out
