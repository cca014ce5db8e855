"""EventLog: the serving stack's structured flight recorder.

Metrics (:mod:`~repro.observability.registry`) answer "how much, how
fast, in aggregate"; traces (:mod:`~repro.observability.trace`) answer
"where did *this* response spend its time".  Neither answers the
operator's first forensic question — *what happened, in order* — after
an incident: which requests ran, which were shed, which sessions were
evicted, when the store discarded a corrupt entry, when a front-end
started or stopped.  This module is that durable record:

* :class:`EventLog` keeps a **lock-protected in-memory ring buffer**
  (the flight recorder: bounded, drop-oldest, with a dropped-events
  counter so truncation is visible, never silent) and optionally mirrors
  every event to a **line-buffered JSONL file sink** with size-based
  rotation — the access log ``repro-oca serve --access-log PATH`` writes,
  mergeable across processes because every event carries the pid.
* Events are flat JSON objects: ``ts`` (unix time), ``seq`` (per-log
  monotone), ``pid``, ``kind``, plus kind-specific fields.  The serving
  vocabulary (emitted by the queue, manager, store, service, and both
  front-ends off the one service-rooted log):

  ===================  =================================================
  kind                 meaning / distinguishing fields
  ===================  =================================================
  ``request``          one per response: ``trace``, ``client``,
                       ``fingerprint``, ``algorithm``, ``status``
                       (``ok``/``error``), ``session_source``,
                       ``coalesce_batch``, ``cover_memo`` (``hit`` /
                       ``miss`` for a seed-independent detector, else
                       ``None``), ``latency_seconds``, ``spans`` (the
                       per-station trace timings)
  ``deadline_shed``    a request shed past its budget: ``stage``
                       (``admission``/``queue``), ``deadline_seconds``,
                       ``waited_seconds``
  ``queue_rejected``   an admission refusal: ``reason``
                       (``full``/``closed``)
  ``session_evicted``  a warm session closed: ``fingerprint``,
                       ``reason`` (``capacity``/``explicit``)
  ``store_corrupt``    a persisted entry discarded (the caller falls
                       back to recompiling): ``fingerprint``, ``reason``
  ``server_start`` /   front-end lifecycle: ``front_end``
  ``server_stop``      (``socket``/``http``), ``host``, ``port``
  ===================  =================================================

  The vocabulary is open — future layers (the shard router) add kinds
  without touching this module — but these names are the contract the
  debug endpoints and the CI smoke assert on.
* :class:`SlowRequestLog` is the worst-N table behind
  ``GET /debug/slow``: requests whose latency crossed
  ``--slow-threshold-seconds`` keep their full trace, engine stats, and
  queue context so a slow detect is reconstructable *after* it happened.

:data:`NULL_EVENT_LOG` is the shared no-op twin (the benchmark's
"instrumentation off" arm and the default for standalone components):
``emit`` discards, ``tail`` is empty, nothing is ever written.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
import warnings
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from .registry import NULL_REGISTRY, MetricsRegistry, counter

__all__ = [
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "SlowRequestLog",
]


#: The event log's instruments.
EVENT_METRICS = {
    "emitted": counter(
        "repro_events_total", "Structured events emitted, by kind", "kind"
    ),
    "dropped": counter(
        "repro_events_dropped_total", "Events evicted from the full ring buffer"
    ),
    "sink_bytes": counter(
        "repro_events_sink_bytes_total", "Bytes appended to the JSONL event sink"
    ),
    "rotations": counter(
        "repro_events_sink_rotations_total",
        "Size-based rotations of the JSONL event sink",
    ),
}


class EventLog:
    """A bounded in-memory event ring with an optional JSONL file sink.

    Parameters
    ----------
    capacity:
        Ring-buffer bound (>= 1).  When full, emitting drops the oldest
        event and counts the drop — the flight recorder keeps the most
        recent history, and :attr:`dropped` says how much is missing.
    sink_path:
        Optional JSONL access-log path.  Every event is appended as one
        ``json.dumps`` line through a line-buffered text stream, so a
        crashed process leaves complete lines behind.  Parent
        directories are created.
    sink_max_bytes:
        Size-based rotation bound for the sink (>= 1024).  When an
        append would push the file past it, the current file is renamed
        to ``<path>.1`` (replacing any previous rotation) and a fresh
        file is started — worst case on disk is ~2x the bound.  ``None``
        disables rotation.
    registry:
        The :class:`~repro.observability.MetricsRegistry` the log
        publishes :data:`EVENT_METRICS` into; ``None`` creates a private
        one.  :attr:`dropped` and :attr:`rotations` read these counters.

    ``emit`` is safe from any thread (queue workers, the asyncio loop,
    executor threads): one lock orders the sequence counter, the ring,
    and the sink, so the JSONL file is seq-ordered per process.  Sink
    IO failures are absorbed — the sink is disabled after one
    :class:`RuntimeWarning` and the in-memory ring keeps recording; the
    event log can never fail a request.
    """

    def __init__(
        self,
        capacity: int = 1024,
        sink_path: Optional[Any] = None,
        sink_max_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"event-log capacity must be >= 1, got {capacity}"
            )
        if sink_max_bytes is not None and sink_max_bytes < 1024:
            raise ConfigurationError(
                "sink_max_bytes must be >= 1024 (one rotation must hold "
                f"more than a handful of events), got {sink_max_bytes}"
            )
        if sink_max_bytes is not None and sink_path is None:
            raise ConfigurationError(
                "sink_max_bytes needs a sink_path to rotate"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._seq = 0
        self.sink_path = None if sink_path is None else Path(sink_path)
        self.sink_max_bytes = sink_max_bytes
        self._sink = None
        self._sink_bytes = 0
        if self.sink_path is not None:
            self.sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(
                self.sink_path, "a", encoding="utf-8", buffering=1
            )
            self._sink_bytes = self._sink.tell()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = self.registry.bind(EVENT_METRICS)

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted from the ring since construction."""
        return int(self._metrics.dropped.value)

    @property
    def rotations(self) -> int:
        """Sink files rotated out since construction."""
        return int(self._metrics.rotations.value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the stored dict.

        ``ts`` / ``seq`` / ``pid`` / ``kind`` are stamped here; callers
        supply only the kind-specific fields.  Fields must be
        JSON-serialisable (the sink writes them verbatim); a
        non-serialisable value falls back to ``repr`` rather than
        losing the event.
        """
        event: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "seq": 0,  # patched under the lock
            "pid": os.getpid(),
            "kind": kind,
        }
        event.update(fields)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            if len(self._ring) == self.capacity:
                self._metrics.dropped.inc()
            self._ring.append(event)
            if self._sink is not None:
                self._write_line(event)
        self._metrics.emitted.labels(kind).inc()
        return event

    def _write_line(self, event: Dict[str, Any]) -> None:
        """Append one JSONL line, rotating first if it would overflow.

        Called with the log lock held; any failure disables the sink
        after a single warning — the ring keeps recording regardless.
        """
        try:
            line = json.dumps(event, sort_keys=True, default=repr) + "\n"
            encoded_len = len(line.encode("utf-8"))
            if (
                self.sink_max_bytes is not None
                and self._sink_bytes > 0
                and self._sink_bytes + encoded_len > self.sink_max_bytes
            ):
                self._sink.close()
                os.replace(
                    self.sink_path, self.sink_path.with_name(
                        self.sink_path.name + ".1"
                    )
                )
                self._sink = open(
                    self.sink_path, "a", encoding="utf-8", buffering=1
                )
                self._sink_bytes = 0
                self._metrics.rotations.inc()
            self._sink.write(line)
            self._sink_bytes += encoded_len
            self._metrics.sink_bytes.inc(encoded_len)
        except Exception as error:
            sink, self._sink = self._sink, None
            try:
                if sink is not None:
                    sink.close()
            except Exception:
                pass
            warnings.warn(
                f"event-log sink {self.sink_path} failed ({error}); "
                "disabling the file sink, in-memory events continue",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------
    def tail(
        self, n: Optional[int] = None, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """The most recent events, oldest first.

        ``n`` bounds the count (``None``: everything buffered); ``kind``
        filters before bounding, so ``tail(5, kind="request")`` is the
        last five *requests*, however many other events interleaved.
        Returned dicts are copies — mutating them cannot corrupt the
        ring.
        """
        with self._lock:
            events: List[Dict[str, Any]] = list(self._ring)
        if kind is not None:
            events = [event for event in events if event["kind"] == kind]
        if n is not None:
            if n <= 0:
                return []
            events = events[-n:]
        return [dict(event) for event in events]

    def close(self) -> None:
        """Flush and close the file sink (the ring stays readable)."""
        with self._lock:
            sink, self._sink = self._sink, None
        if sink is not None:
            try:
                sink.close()
            except Exception:
                pass

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EventLog(buffered={len(self)}/{self.capacity}, "
            f"dropped={self.dropped}, "
            f"sink={str(self.sink_path) if self.sink_path else None})"
        )


class NullEventLog(EventLog):
    """An event log that records nothing — the instrumentation-off twin.

    Every serving component defaults to this when no log is wired in,
    so the ``emit`` call sites stay unconditional and cost one cheap
    method call; the benchmark's "disabled" arm measures exactly this.
    """

    def __init__(self) -> None:  # no buffers, no sink, inert metrics
        self.capacity = 0
        self.sink_path = None
        self.sink_max_bytes = None
        self.registry = NULL_REGISTRY
        self._metrics = NULL_REGISTRY.bind(EVENT_METRICS)

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        return {}

    def tail(self, n=None, kind=None) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullEventLog()"


#: The shared inert event log: pass (or default) as ``events`` to any
#: serving component to switch the event pipeline off.
NULL_EVENT_LOG = NullEventLog()


class SlowRequestLog:
    """A bounded worst-N table of the slowest requests seen.

    The ring buffer answers "what happened recently"; this table answers
    "what were the *worst* requests, ever" — the forensic record behind
    ``GET /debug/slow``.  A request whose latency reaches
    ``threshold_seconds`` is offered via :meth:`note`; the table keeps
    the ``limit`` slowest (a min-heap keyed by latency, so the cheapest
    captive is evicted first) together with whatever context the caller
    attached — the service stores the full trace export, engine stats,
    and queue context.

    ``threshold_seconds`` semantics: ``None`` disables capture
    entirely; ``0.0`` captures every request (the CI smoke's forcing
    knob — any real latency exceeds zero).
    """

    def __init__(
        self,
        limit: int = 32,
        threshold_seconds: Optional[float] = None,
    ) -> None:
        if limit < 1:
            raise ConfigurationError(
                f"slow-request limit must be >= 1, got {limit}"
            )
        if threshold_seconds is not None and threshold_seconds < 0:
            raise ConfigurationError(
                "threshold_seconds must be >= 0 (0 captures everything), "
                f"got {threshold_seconds}"
            )
        self.limit = limit
        self.threshold_seconds = threshold_seconds
        self._lock = threading.Lock()
        self._heap: List[Any] = []  # (latency, tiebreak_seq, record)
        self._seq = 0
        self._captured = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_seconds is not None

    @property
    def captured(self) -> int:
        """Requests that crossed the threshold (kept or since evicted)."""
        with self._lock:
            return self._captured

    def note(self, latency_seconds: float, record: Dict[str, Any]) -> bool:
        """Offer one finished request; returns whether it was captured.

        ``record`` is stored as given (plus the measured latency under
        ``latency_seconds``); build it JSON-ready — the debug endpoint
        serves these dicts verbatim.
        """
        threshold = self.threshold_seconds
        if threshold is None or latency_seconds < threshold:
            return False
        with self._lock:
            self._captured += 1
            self._seq += 1
            entry = dict(record)
            entry["latency_seconds"] = latency_seconds
            heapq.heappush(
                self._heap, (latency_seconds, self._seq, entry)
            )
            while len(self._heap) > self.limit:
                heapq.heappop(self._heap)
        return True

    def worst(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The captured requests, slowest first (bounded by ``n``)."""
        with self._lock:
            entries = sorted(self._heap, key=lambda item: (-item[0], item[1]))
        if n is not None:
            entries = entries[: max(n, 0)]
        return [dict(entry[2]) for entry in entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def __repr__(self) -> str:
        return (
            f"SlowRequestLog(kept={len(self)}/{self.limit}, "
            f"captured={self.captured}, "
            f"threshold={self.threshold_seconds})"
        )
