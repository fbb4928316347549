"""CraterLake-class accelerator model (paper Secs. 4-6).

Configuration presets with iso-throughput word-size scaling, kernel
decompositions of homomorphic ops into functional-unit work, calibrated
energy and area models, and a throughput-balance simulator that prices
workload traces through a modulus chain.
"""

from repro.accel.area import DEFAULT_AREA_MODEL, AreaModel
from repro.accel.config import AcceleratorConfig, craterlake
from repro.accel.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.accel.kernels import OpCost
from repro.accel.sim import AcceleratorSim, SimResult

__all__ = [
    "AcceleratorConfig",
    "craterlake",
    "OpCost",
    "EnergyModel",
    "DEFAULT_ENERGY_MODEL",
    "AreaModel",
    "DEFAULT_AREA_MODEL",
    "AcceleratorSim",
    "SimResult",
]
