"""Energy model: per-primitive energies with word-size scaling laws.

The paper's energy argument (Sec. 4.2) rests on two facts: modular
multipliers grow *quadratically* in area/energy with word width, while
data movement (register file, adders) grows linearly.  We encode exactly
that: every primitive's energy has a multiplier-like component scaling as
``(w/28)^2`` and a movement-like component scaling as ``(w/28)``.

Absolute magnitudes are calibrated once against the published CraterLake
breakdown (Fig. 10: a 28-bit homomorphic multiply at N=2^16 costs a few
mJ, dominated by CRB and NTT, with ~O(R^1.6) growth) and then held fixed
for every experiment in this repository.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.accel.config import BASE_WORD_BITS
from repro.accel.kernels import OpCost


@dataclass(frozen=True)
class EnergyModel:
    """Per-element energies in picojoules at the 28-bit reference point.

    ``*_quad`` components scale quadratically with word width (modular
    multiplier datapath), ``*_lin`` components linearly (operand movement,
    adders, SRAM access).
    """

    # Elementwise modular multiply (mul FU), per element.
    mul_quad_pj: float = 2.2
    mul_lin_pj: float = 1.0
    # Elementwise modular add, per element.
    add_lin_pj: float = 0.9
    # Automorphism (permutation network), per element.
    auto_lin_pj: float = 1.1
    # One NTT butterfly ~ one multiply + two adds + twiddle access; an
    # N-point NTT has (N/2)·log2 N butterflies, so per-element NTT energy
    # is ~(log2 N / 2) butterflies.  We charge per butterfly:
    ntt_butterfly_quad_pj: float = 2.2
    ntt_butterfly_lin_pj: float = 2.4
    # CRB multiply-accumulate, per (element x source residue).
    crb_mac_quad_pj: float = 4.6
    crb_mac_lin_pj: float = 2.6
    # KSHGen hint expansion, per generated element (cheap PRNG + reduce).
    kshgen_lin_pj: float = 1.3
    # Register-file access, per word moved (large banked SRAM).
    rf_word_lin_pj: float = 1.6
    # HBM access, per byte.
    hbm_byte_pj: float = 40.0
    # Static/idle power of the whole die (clock tree, leakage, HBM PHY).
    # Charged per second of execution, which is what couples energy to
    # runtime in Fig. 12 (slower RNS-CKKS runs also burn more energy).
    static_watts: float = 60.0

    # ------------------------------------------------------------------
    def _quad(self, word_bits: int) -> float:
        return (word_bits / BASE_WORD_BITS) ** 2

    def _lin(self, word_bits: int) -> float:
        return word_bits / BASE_WORD_BITS

    def mul_pj(self, word_bits: int) -> float:
        return self.mul_quad_pj * self._quad(word_bits) + self.mul_lin_pj * self._lin(
            word_bits
        )

    def add_pj(self, word_bits: int) -> float:
        return self.add_lin_pj * self._lin(word_bits)

    def auto_pj(self, word_bits: int) -> float:
        return self.auto_lin_pj * self._lin(word_bits)

    def ntt_butterfly_pj(self, word_bits: int) -> float:
        return self.ntt_butterfly_quad_pj * self._quad(
            word_bits
        ) + self.ntt_butterfly_lin_pj * self._lin(word_bits)

    def crb_mac_pj(self, word_bits: int) -> float:
        return self.crb_mac_quad_pj * self._quad(
            word_bits
        ) + self.crb_mac_lin_pj * self._lin(word_bits)

    def kshgen_pj(self, word_bits: int) -> float:
        return self.kshgen_lin_pj * self._lin(word_bits)

    def rf_word_pj(self, word_bits: int) -> float:
        return self.rf_word_lin_pj * self._lin(word_bits)

    # ------------------------------------------------------------------
    def op_energy_breakdown(
        self, cost: OpCost, n: int, word_bits: int, extra_hbm_bytes: float = 0.0
    ) -> dict[str, float]:
        """Energy (joules) per component for one homomorphic op.

        Components follow Fig. 10's legend: RF, NTT, CRB, elementwise
        (mul+add+auto+kshgen), plus HBM (which Fig. 10 excludes and the
        end-to-end figures include).
        """
        log_n = math.log2(n)
        butterflies_per_pass = n / 2 * log_n
        elementwise = (
            cost.mul_passes * n * self.mul_pj(word_bits)
            + cost.add_passes * n * self.add_pj(word_bits)
            + cost.auto_passes * n * self.auto_pj(word_bits)
            + cost.kshgen_passes * n * self.kshgen_pj(word_bits)
        )
        ntt = cost.ntt_passes * butterflies_per_pass * self.ntt_butterfly_pj(word_bits)
        crb_mac_rows = cost.crb_mac_rows  # a sum over the CRB jobs
        crb = crb_mac_rows * n * self.crb_mac_pj(word_bits)
        # RF traffic: operands in + result out for every pass; the NTT
        # makes ~2 full read+write sweeps (4-step), the CRB reads one
        # source word per MAC and writes each destination row once.
        rf_words = (
            3.0 * n * (cost.mul_passes + cost.add_passes + cost.auto_passes)
            + 4.0 * n * cost.ntt_passes
            + n * (crb_mac_rows + sum(d for _, d in cost.crb_jobs))
            + 2.0 * n * cost.kshgen_passes
        )
        rf = rf_words * self.rf_word_pj(word_bits)
        hbm_bytes = cost.hbm_rows * n * word_bits / 8.0 + extra_hbm_bytes
        hbm = hbm_bytes * self.hbm_byte_pj
        return {
            "elementwise": elementwise * 1e-12,
            "ntt": ntt * 1e-12,
            "crb": crb * 1e-12,
            "rf": rf * 1e-12,
            "hbm": hbm * 1e-12,
        }

    def op_energy(
        self, cost: OpCost, n: int, word_bits: int, extra_hbm_bytes: float = 0.0
    ) -> float:
        return sum(
            self.op_energy_breakdown(cost, n, word_bits, extra_hbm_bytes).values()
        )


#: The calibrated model used by every experiment.
DEFAULT_ENERGY_MODEL = EnergyModel()
