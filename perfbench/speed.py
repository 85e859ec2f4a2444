"""Machine-speed probe: a fixed piece of numpy and Python work, no mrrk.

On a shared host other tenants slow the benchmark down: by up to 1.8x, in
spells of ten seconds to several minutes, on a 2-vCPU Intel Xeon VM.  No
statistic of one run's own samples removes a spell that covers the whole
run.  So the run probes the machine between its samples and scales
each sample by REFERENCE_PROBE_S over the probe time measured around it:
the benchmark's seconds are seconds on a machine that runs the probe in
REFERENCE_PROBE_S.

The probe mixes what mrrk's loops do: interpreted Python, numpy vector
arithmetic on 1000 elements, and batched small LAPACK calls.  It never calls
mrrk, so a change to mrrk moves the measured samples and not the scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probes per measurement; the measurement is their median.
PROBE_REPEATS = 5
# The probe's median time on a quiet host (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4 with OpenBLAS on one thread).  It only sets the unit.
REFERENCE_PROBE_S = 0.016

_X = np.linspace(0.0, 1.0, 1000)
_RNG = np.random.default_rng(7)
_A = _RNG.standard_normal((100, 4, 4))
_B = _RNG.standard_normal((100, 4, 4))


def _probe_once() -> float:
    t0 = time.perf_counter()
    for _ in range(40):
        y = np.sin(_X) * 1.0001 + _X
        np.dot(y, _X)
        s = 0
        for i in range(300):
            s += i * i
        np.linalg.eigvals(_A)
        np.matmul(_A, _B)
    return time.perf_counter() - t0


def probe() -> float:
    """Median seconds of PROBE_REPEATS probes."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class SpeedLog:
    """Probe times in order; probe i and i + 1 bracket interval i.

    A sample timed in interval i is scaled by `scale(i)`.  `close` takes the
    probe that ends the current interval and opens the next one.
    """

    def __init__(self):
        self.probes = [probe()]

    @property
    def interval(self) -> int:
        """Index of the interval now open."""
        return len(self.probes) - 1

    def close(self) -> None:
        self.probes.append(probe())

    def scale(self, i: int) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.probes[i:i + 2])

    def median_probe(self) -> float:
        return statistics.median(self.probes)
