"""Host-speed calibration: what a fixed kernel costs right now.

The shared host this benchmark runs on changes speed by up to 1.8x
from one stretch of seconds to the next, for every process alike, with
no CPU steal to show for it (the other tenants of its cores slow them
down).  A run that happens to fall in a slow stretch then reads up to
1.8x slower, and ten runs spread by more than any bound worth setting.

So the benchmark times a fixed kernel of its own — dict and list churn
plus a numpy sort, nothing from ``repro`` — on the client's CPU right
after each answer, and reports timings at reference speed: a latency
is multiplied by :data:`REFERENCE_S` over the kernel's median time
around it.  The raw figures stay in the ``details`` line.  The kernel
never shares a CPU with the server (on a host with more than one), so
a program change cannot move its time.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import List, Optional, Sequence, Set

import numpy as np

#: The kernel's time, in seconds, on the 2-core host the benchmark was
#: tuned on, in a fast stretch.  Timings are reported at this speed.
REFERENCE_S = 0.015

#: Each request is scaled by the median of this many bursts around it.
NEIGHBOURS = 5


class Calibrator:
    """A fixed kernel, built once, timed on demand."""

    def __init__(self) -> None:
        rng = random.Random(20100301)
        self._keys = [rng.randrange(10**6) for _ in range(20000)]
        self._array = np.random.default_rng(20100301).random(200000)
        self.kernel()  # first-call costs stay out of every burst

    def kernel(self) -> int:
        table: dict = {}
        for key in self._keys:
            table[key] = table.get(key, 0) + 1
        np.sort(self._array)
        return len(sorted(table.items()))

    def burst(self, cpus: Optional[Set[int]] = None) -> float:
        """Seconds one kernel takes on ``cpus`` (this thread, pinned for
        the burst, then put back)."""
        if cpus:
            before = os.sched_getaffinity(0)
            os.sched_setaffinity(0, cpus)
        try:
            start = time.perf_counter()
            self.kernel()
            return time.perf_counter() - start
        finally:
            if cpus:
                os.sched_setaffinity(0, before)

    def bursts(self, count: int, cpus: Optional[Set[int]] = None) -> List[float]:
        return [self.burst(cpus) for _ in range(count)]


def factors(bursts: Sequence[float]) -> List[float]:
    """Per-request scale factors: :data:`REFERENCE_S` over the median of
    the :data:`NEIGHBOURS` bursts centred on each request's own."""
    out = []
    for index in range(len(bursts)):
        low = max(0, min(index - NEIGHBOURS // 2, len(bursts) - NEIGHBOURS))
        out.append(REFERENCE_S / statistics.median(bursts[low : low + NEIGHBOURS]))
    return out
