"""Benchmark workloads (paper Sec. 5) as homomorphic-operation traces."""

from repro.workloads.apps import (
    APP_SCALES,
    BENCHMARKS,
    generate,
    workload_traces,
)
from repro.workloads.bootstrap_model import (
    BS19_SCHEDULE,
    BS26_SCHEDULE,
    SCHEDULES,
    BootstrapSchedule,
)
from repro.workloads.walker import ProgramWalker, app_levels_for, level_schedule

__all__ = [
    "BENCHMARKS",
    "APP_SCALES",
    "generate",
    "workload_traces",
    "BS19_SCHEDULE",
    "BS26_SCHEDULE",
    "SCHEDULES",
    "BootstrapSchedule",
    "ProgramWalker",
    "app_levels_for",
    "level_schedule",
]
