"""On-demand sampling profiler: see inside a live serving process.

When a detect is slow in production — a spectral solve pinning one
core, a CSR loop that stopped vectorising — restarting under a
profiler loses the very state being debugged.  This module profiles
*in place*: a daemon thread wakes every ``interval_seconds``, snapshots
every thread's Python stack via :func:`sys._current_frames`, and
aggregates identical stacks into counts.  The result renders as
collapsed-stack text (``frame;frame;leaf count`` lines — the input
format of Brendan Gregg's ``flamegraph.pl`` and every compatible
viewer), which ``GET /debug/profile?seconds=S`` serves directly.

Overhead bound: each tick costs one ``sys._current_frames()`` call
plus an O(stack depth) walk per live thread — at the default 200 Hz on
a serving process with tens of threads this stays **well under 5% of
one core**, and the hot numpy/scipy regions the samples attribute run
with the GIL released, so detect throughput is essentially unaffected
(``BENCH_obs.json`` records the measurement).  The sampler sees
Python frames only: time inside a C extension is attributed to the
Python line that called it, which for "which solve is hot?" is exactly
the attribution wanted.

Sampling bias caveat: stacks are sampled at ticks, so a function's
sample share approximates its wall-clock share only over enough
samples; sub-interval spikes can be missed.  For always-on accounting
use the metrics histograms — this tool is the magnifying glass, not
the dashboard.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter as _TallyCounter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "ProfileReport",
    "SamplingProfiler",
]


@dataclass
class ProfileReport:
    """The aggregated outcome of one sampling run."""

    #: ``stack -> samples`` where stack is the collapsed
    #: ``thread;file:func;...;leaf`` string (root first, leaf last).
    stacks: Dict[str, int]
    #: Total sampling ticks taken (>= 1 unless the run was empty).
    samples: int
    #: Wall-clock duration actually sampled.
    seconds: float
    #: The tick interval used.
    interval_seconds: float

    def collapsed(self) -> str:
        """Flamegraph-ready text: one ``stack count`` line per stack,
        heaviest first (ties broken lexically for determinism)."""
        lines = [
            f"{stack} {count}"
            for stack, count in sorted(
                self.stacks.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (
            f"ProfileReport(samples={self.samples}, "
            f"stacks={len(self.stacks)}, seconds={self.seconds:.3f})"
        )


def _collapse_frame(frame) -> str:
    code = frame.f_code
    filename = code.co_filename
    # Keep paths short but unambiguous: last two components.
    parts = filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else filename
    return f"{short}:{code.co_name}"


@dataclass
class SamplingProfiler:
    """Samples all thread stacks on a timer; one run at a time.

    ``profile(seconds)`` is the blocking convenience used by the HTTP
    debug endpoint (which calls it from an executor thread so the event
    loop stays live).  ``start()``/``stop()`` expose the same run
    non-blocking for tests and embedding.

    Concurrent runs are refused (:class:`RuntimeError`) rather than
    interleaved — two samplers would double the overhead and neither
    report would mean anything; the HTTP endpoint maps the refusal to
    a 503.
    """

    interval_seconds: float = 0.005
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )
    _thread: Optional[threading.Thread] = field(default=None, repr=False)
    _stop_event: Optional[threading.Event] = field(default=None, repr=False)
    _tally: "_TallyCounter[str]" = field(
        default_factory=_TallyCounter, repr=False
    )
    _samples: int = field(default=0, repr=False)
    _started_at: float = field(default=0.0, repr=False)
    _stopped_at: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ConfigurationError(
                "profiler interval must be > 0 seconds, got "
                f"{self.interval_seconds}"
            )

    @property
    def running(self) -> bool:
        with self._lock:
            return self._thread is not None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling on a daemon thread (refuses a second run)."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("a profiling run is already active")
            self._tally = _TallyCounter()
            self._samples = 0
            self._stop_event = threading.Event()
            self._started_at = time.perf_counter()
            self._thread = threading.Thread(
                target=self._run,
                args=(self._stop_event,),
                name="repro-profiler",
                daemon=True,
            )
            self._thread.start()

    def stop(self) -> ProfileReport:
        """End the run and return its report."""
        with self._lock:
            thread, self._thread = self._thread, None
            stop_event, self._stop_event = self._stop_event, None
        if thread is None:
            raise RuntimeError("no profiling run is active")
        stop_event.set()
        thread.join()
        self._stopped_at = time.perf_counter()
        return ProfileReport(
            stacks=dict(self._tally),
            samples=self._samples,
            seconds=self._stopped_at - self._started_at,
            interval_seconds=self.interval_seconds,
        )

    def profile(self, seconds: float) -> ProfileReport:
        """Sample for ``seconds`` and return the report (blocking)."""
        if seconds <= 0:
            raise ConfigurationError(
                f"profile duration must be > 0 seconds, got {seconds}"
            )
        self.start()
        try:
            time.sleep(seconds)
        finally:
            report = self.stop()
        return report

    # ------------------------------------------------------------------
    def _run(self, stop_event: threading.Event) -> None:
        own_ident = threading.get_ident()
        while not stop_event.wait(self.interval_seconds):
            names = {
                thread.ident: thread.name
                for thread in threading.enumerate()
            }
            for ident, frame in sys._current_frames().items():
                if ident == own_ident:
                    continue
                frames: List[str] = []
                while frame is not None:
                    frames.append(_collapse_frame(frame))
                    frame = frame.f_back
                frames.reverse()
                thread_name = names.get(ident, f"thread-{ident}")
                stack = ";".join([thread_name] + frames)
                self._tally[stack] += 1
            self._samples += 1
