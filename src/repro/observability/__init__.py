"""Production observability: metrics registry and request tracing.

The serving stack (PRs 3–5) computes rich operational state — queue
admission accounting, session-cache hit rates, detect latencies, socket
traffic counts — but kept it in per-component dataclasses reachable
only from Python.  This package is the common substrate that makes the
same numbers *operable*:

* :mod:`~repro.observability.registry` — :class:`MetricsRegistry`:
  thread-safe counters, gauges, and fixed-bucket histograms with
  Prometheus text rendering (``GET /metrics``) and flat snapshots (the
  ``--stats-interval`` line), plus :data:`NULL_REGISTRY` to switch the
  bookkeeping off;
* :mod:`~repro.observability.trace` — :class:`RequestTrace`: a
  fleet-unique id (``t-<pid>-NNNNNN``) per serving request and span
  timings across parse → queue wait → session acquire → detect →
  render, echoed in the response's ``trace`` annotation;
* :mod:`~repro.observability.events` — :class:`EventLog`: a bounded
  in-memory flight recorder plus optional rotating JSONL access-log
  sink recording every request and every operational event (sheds,
  rejections, evictions, store corruption, server lifecycle), with
  :class:`SlowRequestLog` keeping full forensics for the worst-N
  slowest requests and :data:`NULL_EVENT_LOG` to switch it all off;
* :mod:`~repro.observability.slo` — :class:`SloTracker`:
  operator-declared objectives (``--slo p99:0.5s,availability:99.9``)
  read from the service's latency histogram (bucket-interpolated
  quantiles, exact within-target flags) and response counters
  (lifetime availability and error budget), exported as ``repro_slo_*``
  gauges;
* :mod:`~repro.observability.profiler` — :class:`SamplingProfiler`:
  an on-demand ``sys._current_frames`` sampler returning
  collapsed-stack flamegraph text (``GET /debug/profile``).

One registry is wired through a whole serving stack
(:class:`~repro.serving.ServingService` owns it and shares it with its
manager, queue, sessions, and front-ends); standalone components
default to a private registry so unit accounting stays per-instance.
Each component declares its instruments once, in a table of
:func:`counter` / :func:`gauge` / :func:`histogram` rows bound by
:meth:`MetricsRegistry.bind`, the only way to create an instrument; its
writers and its ``.stats`` (a :class:`StatsView`) use the same bound
rows, so ``.stats``, the stats line and ``GET /metrics`` read one
source.
"""

from .events import NULL_EVENT_LOG, EventLog, NullEventLog, SlowRequestLog
from .profiler import ProfileReport, SamplingProfiler
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    StatsView,
    counter,
    gauge,
    histogram,
)
from .slo import SloTracker, parse_slo_spec
from .trace import RequestTrace, new_trace, reset_trace_ids

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "StatsView",
    "counter",
    "gauge",
    "histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "RequestTrace",
    "new_trace",
    "reset_trace_ids",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "SlowRequestLog",
    "SloTracker",
    "parse_slo_spec",
    "ProfileReport",
    "SamplingProfiler",
]
