"""The multi-graph serving layer: sessions, cached; requests, queued.

:class:`~repro.detectors.GraphSession` (PR 3) made repeat detections
over one graph cheap.  This package is the layer above it, the one the
heavy-traffic north star needs — many graphs, many clients, one
process:

* :mod:`~repro.serving.fingerprint` — a stable, order-insensitive
  content hash of a graph (:func:`graph_fingerprint`), the key under
  which warm state is shared;
* :mod:`~repro.serving.manager` — :class:`SessionManager`, a bounded
  LRU of warm sessions with deterministic eviction, hit/miss/eviction
  accounting, and thread-safe ``detect``;
* :mod:`~repro.serving.queue` — :class:`ServingQueue`, bounded
  asynchronous admission with :class:`~repro.errors.QueueFull`
  backpressure, per-request futures, and graceful drain;
* :mod:`~repro.serving.service` — :class:`ServingService`, the
  socket-free JSONL front-end behind ``repro-oca serve``;
* :mod:`~repro.serving.admission` — :class:`FrontEnd`, the one
  admission core under both network front-ends: a client per
  connection with ordered response slots, round-robin admission one
  request per turn, per-client in-flight caps, deadlines from arrival
  with dead-on-arrival shedding, drain-first stop, and the
  ``repro_server_*{front_end=...}`` counters behind ``.stats``;
* :mod:`~repro.serving.server` — :class:`ServingServer`, the JSONL
  line codec over TCP (``repro-oca serve --listen``; a line over the
  cap is refused ``"queue full"``), plus :func:`start_server_thread`
  to run either front-end on a background loop;
* :mod:`~repro.serving.http` — :class:`HttpServer`, the HTTP/1.1 codec
  (``repro-oca serve --http``): ``POST /detect`` bodies through the
  same admission core (a line over the cap waits), ``GET /health``
  readiness, ``GET /metrics`` Prometheus scrapes of the stack's shared
  :class:`~repro.observability.MetricsRegistry`, and the
  ``GET /debug/*`` forensics endpoints (event-log tail, slow-request
  table, registry snapshot, on-demand sampling profiler).

Quickstart::

    from repro.serving import ServingQueue, SessionManager

    with SessionManager(max_sessions=4) as manager:
        # synchronous, warm-cached across graphs
        result = manager.detect(graph, "oca", seed=7)

        # asynchronous, bounded
        with ServingQueue(manager, workers=2, max_depth=64) as q:
            futures = [q.detect(g, "oca", seed=s) for g, s in traffic]
            covers = [f.result().cover for f in futures]

Covers served through either path are byte-identical to direct
``GraphSession.detect`` calls with the same arguments — the serving
layer routes and amortises, it never changes results.  Every future
scaling layer (sharding, shared-memory arrays, batched dispatch) plugs
in behind these interfaces.
"""

from .admission import FrontEnd
from .fingerprint import graph_fingerprint
from .http import HttpServer
from .manager import SessionManager
from .queue import ServeRequest, ServingQueue
from .server import ServerHandle, ServingServer, start_server_thread
from .service import ServingService, serve_stream

__all__ = [
    "FrontEnd",
    "graph_fingerprint",
    "HttpServer",
    "SessionManager",
    "ServeRequest",
    "ServingQueue",
    "ServerHandle",
    "ServingServer",
    "ServingService",
    "serve_stream",
    "start_server_thread",
]
