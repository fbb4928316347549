"""Accelerator configurations (paper Secs. 4.1 and 5).

The default machine is CraterLake as proposed: 28-bit words, 2048 vector
lanes, a 256 MB register file, 1 TB/s of HBM, and the FU mix of Fig. 9.
Word-size variants follow the paper's *iso-throughput scaling*: widening
the word proportionally reduces the lane count (and the CRB's
multiply-accumulate depth) so raw bit throughput per cycle is constant.
The 64-bit point is the ARK-like configuration and 36-bit the SHARP-like
one (Sec. 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ParameterError

#: Reference design point: CraterLake as published.
BASE_WORD_BITS = 28
BASE_LANES = 2048
BASE_CRB_MACS_PER_LANE = 56


@dataclass(frozen=True)
class AcceleratorConfig:
    """A CraterLake-class vector FHE accelerator."""

    name: str = "craterlake-28"
    word_bits: int = BASE_WORD_BITS
    lanes: int = BASE_LANES
    clock_ghz: float = 1.0
    register_file_mb: float = 256.0
    hbm_gb_s: float = 1000.0
    #: FU counts per Fig. 9.
    mul_fus: int = 5
    add_fus: int = 5
    ntt_fus: int = 2
    auto_fus: int = 1
    crb_fus: int = 1
    crb_macs_per_lane: int = BASE_CRB_MACS_PER_LANE
    #: Keyswitch-hint generation on chip (CraterLake/SHARP have it; it
    #: removes keyswitch-key traffic from HBM).
    kshgen: bool = True

    def __post_init__(self):
        if self.word_bits < 20 or self.word_bits > 64:
            raise ParameterError(
                f"word size {self.word_bits} outside the modeled 20-64b range"
            )
        if self.lanes < 1:
            raise ParameterError("lane count must be positive")

    # ------------------------------------------------------------------
    @property
    def bytes_per_cycle(self) -> float:
        """HBM bytes deliverable per clock cycle."""
        return self.hbm_gb_s * 1e9 / (self.clock_ghz * 1e9)

    @property
    def word_bytes(self) -> float:
        """Storage bytes per hardware word (packed at bit granularity)."""
        return self.word_bits / 8.0

    def row_bytes(self, n: int) -> float:
        """Bytes of one residue polynomial row of degree ``n``."""
        return n * self.word_bytes

    # ------------------------------------------------------------------
    def with_word_size(self, word_bits: int) -> "AcceleratorConfig":
        """Iso-throughput variant at a different word size (Sec. 6.2).

        Lanes scale as ``28/w`` so total bits per cycle stay constant, and
        the CRB's MACs per lane scale the same way so it is not
        overdesigned for the (smaller) maximum residue count.
        """
        lanes = max(1, round(BASE_LANES * BASE_WORD_BITS / word_bits))
        macs = max(1, round(BASE_CRB_MACS_PER_LANE * BASE_WORD_BITS / word_bits))
        return replace(
            self,
            name=f"{self.family}-{word_bits}",
            word_bits=word_bits,
            lanes=lanes,
            crb_macs_per_lane=macs,
        )

    def with_register_file(self, megabytes: float) -> "AcceleratorConfig":
        return replace(
            self,
            name=f"{self.family}-{self.word_bits}-rf{int(megabytes)}",
            register_file_mb=megabytes,
        )

    def with_crb_shrink(self, fraction: float) -> "AcceleratorConfig":
        """Shrink the CRB's MAC depth by ``fraction`` (Sec. 6.3)."""
        macs = max(1, round(self.crb_macs_per_lane * (1.0 - fraction)))
        return replace(self, crb_macs_per_lane=macs)

    @property
    def family(self) -> str:
        return self.name.split("-")[0]


def craterlake() -> AcceleratorConfig:
    """CraterLake as proposed (28-bit words)."""
    return AcceleratorConfig()

