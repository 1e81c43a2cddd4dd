"""Machine-speed gauge that puts the benchmark's timings on a reference scale.

On a shared host the same work can take 40% longer for seconds at a time, and
every kind of work slows alike: a fixed pure-Python loop and an ecpsim op
stretch by the same factor.  A wall-clock time read during such a phase says
more about the neighbours than about the program.  The gauge times a fixed
kernel, a mix of dict-heavy Python and numpy sorting (the two kinds of work
the ops do), best of two back-to-back runs with the collector paused.  A time
is scaled by ``REFERENCE_S`` over the median of the last ``WINDOW`` samples:
it becomes the time the same work would take on a machine where the kernel
takes ``REFERENCE_S``.  A slower program still scales to a longer time; a
slower host does not.
"""

import gc
import statistics
import time
from collections import deque

import numpy

_perf = time.perf_counter


class SpeedGauge:
    REFERENCE_S = 0.003
    INTERVAL_S = 0.25
    WINDOW = 3

    def __init__(self) -> None:
        self._keys = numpy.random.default_rng(0).integers(0, 1 << 40, 8_000)
        self._recent: deque = deque(maxlen=self.WINDOW)
        self.samples: list = []
        self._last = float("-inf")

    def _kernel(self) -> None:
        table: dict = {}
        for i in range(4_000):
            key = (i & 511, i % 3)
            table[key] = table.get(key, 0) + i
        numpy.unique(numpy.sort(self._keys, kind="stable"))

    def sample(self) -> None:
        gc.disable()
        try:
            times = []
            for _ in range(2):
                start = _perf()
                self._kernel()
                times.append(_perf() - start)
        finally:
            gc.enable()
        self._last = _perf()
        self._recent.append(min(times))
        self.samples.append(min(times))

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than ``INTERVAL_S``."""
        if _perf() - self._last >= self.INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.median(self._recent)

    def summary(self) -> dict:
        return {
            "speed_samples": len(self.samples),
            "speed_median_s": statistics.median(self.samples),
            "speed_min_s": min(self.samples),
            "speed_max_s": max(self.samples),
        }
