"""Machine-speed samples taken between operations.

The cores of the machine this benchmark was built on (2 vCPUs under KVM)
switch between two speeds about 1.7x apart, for a fraction of a second to
minutes at a time.  A ``Speed`` times a short fixed search that uses nothing
of wordbound before operations, at most every ``every`` seconds, and turns
each sample into a factor: reference seconds per measured second, where the
reference is the search's time at the faster speed.  An operation's time is
scaled by the mean factor of the samples just before and just after it.
"""

from __future__ import annotations

import gc
import time

import reference

# calibration_search's time on the reference machine (Python 3.11.7) when
# its core runs at the faster of its two speeds
REFERENCE_S = 0.0030
LETTERS = [(2, 0, 0), (-2, 0, 0), (3, 0, 0), (-3, 0, 0), (0, 1, 0), (0, -1, 0)]


def calibration_search():
    """The radius-6 ball of the Heisenberg group under {a^+-2, a^+-3, b^+-1},
    in the benchmark's own matrix law; the collector is off so that the
    program's heap cannot change its time."""
    law = reference.heisenberg_law()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference.distances(law, LETTERS, 6)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    def __init__(self, every):
        self.every = every  # seconds between samples; 0 samples before every operation
        self.factors = []
        self.spent = 0.0  # seconds spent sampling, to take out of a pass's wall time
        self._next = 0.0

    def tick(self, force=False):
        """Sample if due (or forced); the index of the latest sample."""
        t0 = time.perf_counter()
        if force or t0 >= self._next:
            self.factors.append(REFERENCE_S / calibration_search())
            t1 = time.perf_counter()
            self.spent += t1 - t0
            self._next = t1 + self.every
        return len(self.factors) - 1

    def factor(self, k):
        """Factor for an operation that ran after sample ``k``."""
        f = self.factors
        return (f[k] + f[k + 1]) / 2 if k + 1 < len(f) else f[k]
