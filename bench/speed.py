"""Host-speed probe used to put wall times on a common scale.

On a shared host the speed of one core drifts by up to a factor of two over
seconds to minutes (process CPU time tracks wall time, so the drift is in
the host, not in scheduling).  A fixed kernel of small numpy operations
driven from a Python loop, the same mix as the library's hot paths but none
of its code, is timed between chunks of measured work.  A span of work
between two probes is rescaled by ``REFERENCE_PROBE_S / probe``, with the
probe time averaged over the two probes around it; the result reads as the
wall time on a host whose probe takes REFERENCE_PROBE_S.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time

import numpy as np

# median probe time on the reference host (2-core Intel Xeon, Python 3.11.7,
# numpy 2.4.6) in its fast phase
REFERENCE_PROBE_S = 0.0021

PROBE_EVERY_S = 0.1
_REPEATS = 3
_STEPS = 400
_X = np.linspace(-1.0, 1.0, 15)
_W = np.full(15, 2.0 / 15)


def _kernel() -> float:
    acc = 0.0
    heap: list = []
    for i in range(_STEPS):
        pts = 0.5 * (1.0 + 1e-3 * i) * (1.0 + _X)
        fx = np.abs(np.exp(-pts * pts)) ** 1.5
        acc += float(fx @ _W)
        heapq.heappush(heap, (-acc, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def _probe_once() -> float:
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedTimeline:
    """Probes taken between spans of work, and the rescaling they imply."""

    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._probe: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        p = _probe_once()
        self._starts.append(start)
        self._ends.append(time.perf_counter())
        self._probe.append(p)

    def due(self) -> bool:
        return time.perf_counter() - self._ends[-1] >= PROBE_EVERY_S

    def factor_at(self, t: float) -> float:
        """Rescaling for work at time t: the probes before and after it."""
        i = bisect.bisect_right(self._ends, t) - 1
        if i < 0 or i + 1 >= len(self._probe):
            raise ValueError("time not bracketed by probes")
        return 2.0 * REFERENCE_PROBE_S / (self._probe[i] + self._probe[i + 1])

    def scaled_work(self) -> tuple[float, float]:
        """(raw, rescaled) seconds of work between the first and last probe."""
        raw = scaled = 0.0
        for i in range(len(self._probe) - 1):
            span = self._starts[i + 1] - self._ends[i]
            raw += span
            scaled += span * 2.0 * REFERENCE_PROBE_S / (self._probe[i] + self._probe[i + 1])
        return raw, scaled

    def median_probe(self) -> float:
        return statistics.median(self._probe)
