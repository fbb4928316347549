"""The machine-speed probe: what lets two runs minutes apart be compared.

The sandbox this benchmark runs on changes speed under it: minutes-long
phases where everything — the workloads, plain numpy, a bare Python
loop — runs 5 to 60 % slower (wall and CPU time alike, so it is not
descheduling), on top of seconds-long bursts.  Medians over a run's
iterations absorb the bursts; nothing inside a 15-second run can absorb
a phase that outlasts it, and ten runs of one workload then spread by
10-35 %.

So every run also times a fixed kernel that shares nothing with the
program under test — a uint64 multiply-and-reduce over two 512 KiB
arrays and a bare interpreter loop, the two kinds of work the workloads
are made of — between its iterations, and reports its time metrics in
*reference seconds*: wall seconds times ``REF_S / median(probe
samples)``.  On the sizing sandbox in a quiet phase the factor is 1; in
a slow phase it shrinks the reading by as much as the probe itself
slowed.  The raw readings and the factor are kept beside the corrected
ones in every report.  Measured effect on ten-run spreads: README
"Reference seconds".
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.ladder.harness import median

#: The probe's time on the sizing sandbox in a quiet phase.  Only its
#: constancy matters: it fixes the unit all runs report in.
REF_S = 0.0225
_MODULUS = 268369921  # an NTT-friendly 28-bit prime, like the workloads'


class SpeedProbe:
    """Collects probe samples over a run; ``speed`` is the correction."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a, self._b = (
            rng.integers(0, _MODULUS, (16, 4096), dtype=np.uint64)
            for _ in range(2)
        )
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel once (about 22 ms)."""
        q = np.uint64(_MODULUS)
        t0 = time.perf_counter()
        x = self._a
        for _ in range(40):
            x = x * self._b % q  # products of 28-bit residues fit uint64
        acc = 0
        for i in range(150_000):
            acc = (acc * 31 + i) % 1_000_003
        self.samples.append(time.perf_counter() - t0)

    @property
    def speed(self) -> float:
        """This run's machine speed relative to the reference (1 = equal)."""
        return REF_S / median(self.samples)
