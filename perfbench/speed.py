"""Machine-speed correction for benchmark times.

On a shared host the speed of one core drifts by a quarter or more within
seconds and between minutes, for every program alike; measured times then
spread more between runs than any change worth detecting. The benchmark
therefore times a fixed reference computation (`probe`) every quarter second
between ops, and scales each op's time by `REFERENCE_S` over the mean of the
nearest probes before and after it. Times are reported in seconds of a core
that runs the probe in `REFERENCE_S`.

The probe is interpreted arithmetic on small numpy vectors, the kind of work
in the library's inner loops; a slow spell slows memory-bound array code less
than it slows the probe. The probe uses no library code, so no change to the
library moves it; the unscaled times are kept in each run's result file.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.015  # about the median probe time on a shared 2-core x86_64 host
EVERY_S = 0.25
_VECTOR = np.arange(64.0)


def probe() -> float:
    """Seconds taken by the reference computation."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(5000):
        acc += float(np.maximum(_VECTOR - i, 0.0).argmin()) + 0.5 * i
    return time.perf_counter() - start


def scale_between(before: float, after: float) -> float:
    """Factor for a time measured between two probes."""
    return REFERENCE_S / (0.5 * (before + after))


class Speedometer:
    """Probes taken between ops, and the scale factor for an op between two."""

    def __init__(self):
        self.probes = [probe()]
        self._last = time.perf_counter()

    def mark(self) -> int:
        """Index of the latest probe, taken first if the last is stale."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.probes.append(probe())
            self._last = time.perf_counter()
        return len(self.probes) - 1

    def close(self) -> None:
        self.probes.append(probe())

    def scale(self, index: int) -> float:
        """Factor for an op that ran between probes `index` and `index + 1`."""
        return scale_between(self.probes[index], self.probes[index + 1])
