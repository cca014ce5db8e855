"""The serve front-end: JSONL detection requests in, JSON results out.

This is the process boundary of the serving subsystem — the layer the
``repro-oca serve`` CLI exposes.  It is deliberately socket-free:
requests stream from any line-iterable (a file, stdin, a test's
StringIO), responses stream to any writable, so the whole stack is
testable end-to-end without network plumbing.  The socket server
(:mod:`repro.serving.server`) *is* that one adapter away: it reuses
this module's parse and response-rendering helpers verbatim, so both
front-ends speak byte-identical schemas.

Request schema (one JSON object per line)::

    {"id": "r1",                       # optional, echoed back
     "graph": "path/to/edge_list.txt", # or {"edges": [[u, v], ...]}
     "fingerprint": "…64 hex…",        # alternative: target a warm session
     "algorithm": "oca",               # any registered detector
     "seed": 7,
     "deadline_seconds": 0.5,          # optional: shed if still queued then
     "params": {"batch_size": 4}}      # forwarded to the detector

Response schema (same order as the requests)::

    {"id": "r1", "ok": true, "algorithm": "oca",
     "fingerprint": "…", "session_hit": true,
     "session_source": "warm",   # warm | store | compiled
     "communities": [[1, 2, 3], …],
     "elapsed_seconds": …,    # the detect itself
     "latency_seconds": …,    # submit -> future resolved
     "queue_depth": …,        # queued requests at submission
     "stats": {…}}            # c_source / engine_pool / cover_memo /
                              # queue_wait_seconds / coalesce_batch

    {"id": "r2", "ok": false, "error": "…"}   # per-request failures

Failures are per-request: a malformed line or an unknown algorithm
produces an ``ok: false`` response and the service keeps serving.
A graph path is read straight into a :class:`~repro.graph.CompiledGraph`
(no dict-of-sets :class:`~repro.graph.Graph` is built) and cached per
resolved path, so repeated requests against one file hit the same
object — and through its fingerprint, the same warm session.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import CancelledError
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError, QueueFull, ServingError
from ..graph import CompiledGraph, Graph, read_edge_list_compiled
from ..observability import (
    NULL_EVENT_LOG,
    EventLog,
    MetricsRegistry,
    NullEventLog,
    NullMetricsRegistry,
    SloTracker,
    SlowRequestLog,
    counter,
    histogram,
    new_trace,
    parse_slo_spec,
)
from ..observability.slo import latency_buckets
from .manager import SessionManager
from .queue import ServeRequest, ServingQueue, validate_deadline_seconds

__all__ = ["ServingService", "serve_stream", "error_response"]

#: Bound on the per-path graph cache.  Cached graphs pin their compiled
#: CSR arrays, so an unbounded cache would quietly defeat the manager's
#: memory budget on long-lived streams touching many distinct paths.
_GRAPH_CACHE_LIMIT = 32


def _sort_key(label: Any) -> Tuple[str, str]:
    """Total order over mixed-type labels (ints and strs never compare)."""
    return (type(label).__name__, repr(label))


def _serialize_cover(cover) -> List[List[Any]]:
    """A canonical JSON rendering: sorted members, sorted communities."""
    communities = [sorted(community, key=_sort_key) for community in cover]
    communities.sort(key=lambda members: [_sort_key(node) for node in members])
    return communities


def error_response(request_id: Any, error: BaseException) -> Dict[str, Any]:
    """The one ``ok: false`` shape both front-ends emit for a failure."""
    return {
        "id": request_id,
        "ok": False,
        "error": str(error) or type(error).__name__,
    }


@dataclass
class _Pending:
    """One submitted request awaiting its response slot."""

    request_id: Any
    future: Any
    submitted_at: float
    depth_at_submit: int
    done_at: Optional[float] = None
    trace: Optional[Any] = None
    client: Optional[str] = None
    algorithm: Optional[str] = None


_RESPONSES = counter(
    "repro_service_responses_total", "Responses rendered, by outcome", "status"
)

#: The service's own instruments: the per-response ledger.
#: ``render_response`` is the one funnel every front-end (batch, socket,
#: HTTP) pushes its responses through, so counting there gives one
#: consistent ok/error ledger no matter how requests arrived.
SERVICE_METRICS = {
    "ok": _RESPONSES.labels(status="ok"),
    "error": _RESPONSES.labels(status="error"),
    "parse_seconds": histogram(
        "repro_service_parse_seconds",
        "Request-line parse time (may include a graph-file read)",
    ),
    "latency_seconds": histogram(
        "repro_service_latency_seconds",
        "Queue submission to future resolution, per request",
    ),
}


class ServingService:
    """Dispatch JSONL requests through a manager-backed queue.

    Parameters
    ----------
    manager:
        An existing :class:`~repro.serving.SessionManager` to serve
        from, or ``None`` to own a fresh one built from the remaining
        keyword arguments.
    max_sessions / max_memory_bytes / workers:
        Manager construction knobs (ignored when ``manager`` is given).
        ``workers`` sizes every session's pool; it is the server's, so a
        request cannot set it — ``params.workers`` is refused.  A
        request's ``params.batch_size`` is part of its cover's identity
        and runs on the same warm pool as any other.
    queue_workers / max_depth / coalesce:
        :class:`~repro.serving.ServingQueue` sizing — ``coalesce``
        bounds how many queued same-fingerprint requests one worker
        serves per dispatch group (1 disables coalescing).
    submit_timeout_seconds:
        How long a streamed request may wait for queue space before its
        response becomes ``ok: false`` (``None``: wait indefinitely —
        the pre-deadline behaviour).
    store / store_dir / store_limit_bytes / store_warm:
        Warm-start persistence.  ``store`` is an existing
        :class:`~repro.store.GraphStore`; ``store_dir`` builds one at
        that path (budgeted by ``store_limit_bytes``).  Either wires
        the owned manager to consult the store before compiling and to
        persist freshly compiled graphs, and pre-warms the
        ``store_warm`` most-recently-used fingerprints at construction
        (``None``: up to ``max_sessions``; ``0`` disables pre-warming).
        Only valid when the service owns its manager — a supplied
        ``manager`` brings (or deliberately lacks) its own store.
    registry:
        The :class:`~repro.observability.MetricsRegistry` wired through
        the whole stack — the manager, its sessions, the queue, and any
        front-end (socket / HTTP) serving from this service all publish
        here, so one ``GET /metrics`` scrape sees every layer.  Default:
        a caller-supplied manager's registry, else a fresh one.
    events / event_capacity / access_log_path / access_log_max_bytes:
        The structured-event pipeline.  ``events`` supplies an existing
        :class:`~repro.observability.EventLog`; otherwise the service
        adopts a caller-supplied manager's log or builds its own with
        ``event_capacity`` ring slots (``0`` disables events entirely —
        the inert :data:`~repro.observability.NULL_EVENT_LOG`) and, when
        ``access_log_path`` is set, a rotating JSONL file sink
        (``access_log_max_bytes`` bounds each file).  The one log is
        wired through the queue, manager, store, and both front-ends —
        every request and every operational event lands in one place.
    slo:
        Optional service-level objectives, in the ``--slo`` grammar
        (``"p99:0.5s,availability:99.9"``).  A
        :class:`~repro.observability.SloTracker` reads them from this
        service's latency histogram, which gains a bucket edge at each
        latency target, and its response counters, and exports
        ``repro_slo_*`` gauges on the registry (which must not be a
        :class:`~repro.observability.NullMetricsRegistry`).
    slow_threshold_seconds / slow_capacity:
        Slow-request forensics: responses at or above the threshold
        keep their full trace, engine stats, and queue context in a
        bounded worst-``slow_capacity`` table (``GET /debug/slow``).
        ``None`` disables capture; ``0.0`` captures everything.
    """

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        max_sessions: int = 4,
        max_memory_bytes: Optional[int] = None,
        queue_workers: int = 2,
        max_depth: int = 64,
        coalesce: int = 8,
        workers: int = 1,
        submit_timeout_seconds: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        store: Optional[Any] = None,
        store_dir: Optional[str] = None,
        store_limit_bytes: Optional[int] = None,
        store_warm: Optional[int] = None,
        events: Optional[EventLog] = None,
        event_capacity: int = 1024,
        access_log_path: Optional[str] = None,
        access_log_max_bytes: Optional[int] = None,
        slo: Optional[str] = None,
        slow_threshold_seconds: Optional[float] = None,
        slow_capacity: int = 32,
    ) -> None:
        self.submit_timeout_seconds = submit_timeout_seconds
        self._owns_manager = manager is None
        if manager is not None and (store is not None or store_dir is not None):
            raise ConfigurationError(
                "pass the store to the SessionManager when supplying one: "
                "ServingService(manager=...) cannot also take store/store_dir"
            )
        if store is not None and store_dir is not None:
            raise ConfigurationError(
                "pass either store or store_dir, not both"
            )
        if registry is None:
            # Adopt a supplied manager's registry so the stack still
            # shares one scrape; otherwise the service roots a new one.
            # getattr: tests wrap managers in duck-typed proxies that
            # may not carry one.
            registry = getattr(manager, "registry", None) or MetricsRegistry()
        self.registry = registry
        table = SERVICE_METRICS
        objectives = None
        if slo is not None:
            if not isinstance(slo, str):
                raise TypeError(
                    f"slo takes an --slo spec string, got {type(slo).__name__}"
                )
            objectives = parse_slo_spec(slo)
            if isinstance(registry, NullMetricsRegistry):
                raise ConfigurationError(
                    "slo needs a live metrics registry: a NullMetricsRegistry "
                    "keeps no latencies or response counts to read"
                )
            latency = table["latency_seconds"]
            table = {
                **table,
                "latency_seconds": latency._replace(
                    buckets=latency_buckets(objectives)
                ),
            }
        # Bound before anything that owns a thread or a file: a registry
        # that already holds these families with other buckets refuses
        # the binding, and nothing is left to close.
        self._metrics = registry.bind(table)
        self.slo: Optional[SloTracker] = (
            None
            if objectives is None
            else SloTracker(objectives, self._metrics, registry)
        )
        self._owns_events = False
        if events is None:
            # Adopt a supplied manager's event log for the same reason
            # the registry is adopted: one stack, one flight recorder.
            events = getattr(manager, "events", None)
        if events is None:
            if event_capacity > 0:
                events = EventLog(
                    capacity=event_capacity,
                    sink_path=access_log_path,
                    sink_max_bytes=access_log_max_bytes,
                    registry=registry,
                )
                self._owns_events = True
            else:
                events = NULL_EVENT_LOG
        self.events = events
        self.slow = SlowRequestLog(
            limit=slow_capacity, threshold_seconds=slow_threshold_seconds
        )
        if store_dir is not None:
            # Imported lazily: repro.store imports from repro.serving,
            # so a module-level import here would be a cycle.
            from ..store import GraphStore

            store = GraphStore(
                store_dir,
                max_bytes=store_limit_bytes,
                registry=registry,
                events=self.events,
            )
        # Explicit None-check: SessionManager defines __len__, so a
        # caller's freshly-built (empty) manager is *falsy* and a bare
        # `manager or ...` would silently replace it.
        self.manager = manager if manager is not None else SessionManager(
            max_sessions=max_sessions,
            max_memory_bytes=max_memory_bytes,
            workers=workers,
            registry=registry,
            store=store,
            events=self.events,
        )
        self.store = getattr(self.manager, "store", None)
        self.warmed: List[str] = []
        if (
            self._owns_manager
            and self.store is not None
            and (store_warm is None or store_warm > 0)
        ):
            from ..store import StoreWarmer

            self.warmed = StoreWarmer(
                self.store, self.manager, limit=store_warm
            ).warm()
        self.queue = ServingQueue(
            self.manager,
            workers=queue_workers,
            max_depth=max_depth,
            coalesce=coalesce,
            registry=registry,
            events=self.events,
        )
        self._graph_cache: (
            "OrderedDict[str, Tuple[Tuple[int, int], CompiledGraph]]"
        ) = OrderedDict()
        # The socket front-end parses lines from concurrent executor
        # threads, so hits, inserts, and evictions must not interleave
        # (a racing eviction would turn move_to_end into a KeyError).
        self._graph_cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    def _resolve_graph(self, payload: Dict[str, Any]) -> Any:
        """The graph (or warm fingerprint) a request payload names."""
        if "fingerprint" in payload:
            fingerprint = payload["fingerprint"]
            if not isinstance(fingerprint, str):
                raise ServingError(
                    f"fingerprint must be a string, got {type(fingerprint).__name__}"
                )
            return fingerprint
        spec = payload.get("graph")
        if spec is None:
            raise ServingError("request needs a 'graph' or a 'fingerprint'")
        if isinstance(spec, str):
            path = Path(spec).resolve()
            key = str(path)
            # stat() both validates existence (a missing file becomes a
            # per-request error upstream) and keys freshness: a path
            # rewritten on disk must re-load, never serve the old graph.
            stat = path.stat()
            version = (stat.st_mtime_ns, stat.st_size)
            with self._graph_cache_lock:
                cached = self._graph_cache.get(key)
                if cached is not None and cached[0] == version:
                    self._graph_cache.move_to_end(key)
                    return cached[1]
            # The file read runs unlocked (it is the slow part); a
            # concurrent loader of the same path just overwrites with an
            # equivalent graph, and the fingerprint dedupes downstream.
            # Files are read straight into CSR: the dict-of-sets Graph
            # would only be compiled and dropped.
            graph = read_edge_list_compiled(spec)
            with self._graph_cache_lock:
                self._graph_cache[key] = (version, graph)
                while len(self._graph_cache) > _GRAPH_CACHE_LIMIT:
                    self._graph_cache.popitem(last=False)
            return graph
        if isinstance(spec, dict) and "edges" in spec:
            graph = Graph(nodes=spec.get("nodes", ()))
            for edge in spec["edges"]:
                u, v = edge
                graph.add_edge(u, v)
            return graph
        raise ServingError(
            "graph must be an edge-list path or {'edges': [[u, v], ...]}"
        )

    def _request_from_payload(self, payload: Dict[str, Any]) -> ServeRequest:
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ServingError("params must be a JSON object")
        deadline = payload.get("deadline_seconds")
        validate_deadline_seconds(deadline, ServingError)
        return ServeRequest(
            graph=self._resolve_graph(payload),
            algorithm=payload.get("algorithm", "oca"),
            seed=payload.get("seed"),
            params=dict(params),
            id=payload.get("id"),
            deadline_seconds=None if deadline is None else float(deadline),
        )

    @staticmethod
    def _payload_from_line(line: str) -> Dict[str, Any]:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise ServingError(f"malformed JSON request: {error}") from None
        if not isinstance(payload, dict):
            raise ServingError("each request line must be a JSON object")
        return payload

    def parse_request(self, line: str) -> ServeRequest:
        """One JSONL line to a :class:`ServeRequest` (raises on bad input)."""
        return self._request_from_payload(self._payload_from_line(line))

    def parse_line(
        self, line: str
    ) -> "Union[ServeRequest, Dict[str, Any]]":
        """A request, or a ready error response (id echoed when known).

        *Any* parse-path failure — malformed JSON, a missing edge-list
        file, a malformed inline edge — becomes a per-request error
        response rather than an exception: one bad line must never take
        down the rest of the batch.  The socket and HTTP front-ends
        share this exact path, so every front-end classifies bad input
        identically.

        Every line gets a :class:`~repro.observability.RequestTrace`
        here — the id a response echoes back in its ``trace``
        annotation — and the ``parse`` span is the first one recorded.
        """
        request_id = None
        trace = new_trace()
        try:
            with trace.span("parse"):
                payload = self._payload_from_line(line)
                request_id = payload.get("id")
                request = self._request_from_payload(payload)
        except Exception as error:
            response = error_response(request_id, error)
            response["trace"] = trace.export()
            self._metrics.parse_seconds.observe(
                trace.spans.get("parse", 0.0)
            )
            return response
        request.trace = trace
        self._metrics.parse_seconds.observe(trace.spans.get("parse", 0.0))
        return request

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit_pending(
        self, request: ServeRequest, timeout: Optional[float] = None
    ) -> _Pending:
        """Submit one parsed request, waiting for queue space.

        Returns the pending record :meth:`render_response` consumes.
        Raises :class:`~repro.errors.QueueFull` (timeout elapsed) or
        :class:`~repro.errors.ServingError` (queue closed) — the network
        front-ends map those onto per-request error responses, exactly
        like :meth:`handle_lines` does via
        :meth:`_submit_with_backpressure`.
        """
        depth = self.queue.depth
        future = self.queue.submit_blocking(request, timeout=timeout)
        pending = _Pending(
            request_id=request.id,
            future=future,
            submitted_at=time.perf_counter(),
            depth_at_submit=depth,
            trace=request.trace,
            client=request.client,
            algorithm=request.algorithm,
        )
        future.add_done_callback(
            lambda _f, p=pending: setattr(p, "done_at", time.perf_counter())
        )
        return pending

    def _submit_with_backpressure(
        self, request: ServeRequest
    ) -> "Union[_Pending, Dict[str, Any]]":
        """Submit, absorbing a full queue by waiting for it to drain.

        A refusal — the queue closed under us mid-stream, or stayed full
        past the submit timeout — becomes this request's ``ok: false``
        response instead of an exception out of :meth:`handle_lines`:
        the requests already in flight keep their response slots and
        still flush, which is the per-request error isolation the
        service promises.
        """
        try:
            return self.submit_pending(
                request, timeout=self.submit_timeout_seconds
            )
        except (QueueFull, ServingError) as error:
            return error_response(request.id, error)

    def _response(self, pending: _Pending) -> Dict[str, Any]:
        trace = pending.trace
        try:
            result = pending.future.result()
        # CancelledError is a BaseException since 3.8 but still a
        # per-request outcome here; anything else a detect can raise
        # (config TypeErrors included) is likewise isolated to its own
        # response rather than aborting the batch.
        except (Exception, CancelledError) as error:
            response = error_response(pending.request_id, error)
            if trace is not None:
                response["trace"] = trace.export()
            return response
        latency = (pending.done_at or time.perf_counter()) - pending.submitted_at
        self._metrics.latency_seconds.observe(latency)
        stats = result.stats
        if trace is not None:
            # queue_wait was recorded by the worker; fill in the rest of
            # the span ledger here so the exported trace covers
            # parse -> queue wait -> acquire -> detect -> render.
            acquire = stats.get("session_acquire_seconds")
            if acquire is not None:
                trace.record("session_acquire", acquire)
            trace.record("detect", result.elapsed_seconds)
            trace.mark("session_hit", stats.get("session_hit"))
            trace.mark("session_source", stats.get("session_source"))
            with trace.span("render"):
                communities = _serialize_cover(result.cover)
        else:
            communities = _serialize_cover(result.cover)
        response = {
            "id": pending.request_id,
            "ok": True,
            "algorithm": result.algorithm,
            "fingerprint": stats.get("session_fingerprint"),
            "session_hit": stats.get("session_hit"),
            "session_source": stats.get("session_source"),
            "communities": communities,
            "elapsed_seconds": result.elapsed_seconds,
            "latency_seconds": latency,
            "queue_depth": pending.depth_at_submit,
            "stats": {
                key: stats[key]
                for key in (
                    "c_source",
                    "engine_pool",
                    "cover_memo",
                    "queue_wait_seconds",
                    "coalesce_batch",
                )
                if key in stats
            },
        }
        if trace is not None:
            response["trace"] = trace.export()
        return response

    def handle_lines(
        self, lines: Iterable[str]
    ) -> "Iterable[Dict[str, Any]]":
        """Serve an iterable of JSONL lines; yield responses in order.

        Submission is pipelined (each parsed request enters the queue
        immediately, subject to backpressure) and emission is
        interleaved: whenever the head-of-line response is ready it is
        yielded before the next line is read, so completed results never
        pile up behind a long input — the buffered window is the
        in-flight work, not the whole stream.  Order is always request
        order.
        """
        pending: "deque[Union[_Pending, Dict[str, Any]]]" = deque()

        def head_ready() -> bool:
            head = pending[0]
            return isinstance(head, dict) or head.future.done()

        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parsed = self.parse_line(line)
            if isinstance(parsed, dict):
                pending.append(parsed)
            else:
                pending.append(self._submit_with_backpressure(parsed))
            while pending and head_ready():
                yield self.render_response(pending.popleft())
        while pending:
            yield self.render_response(pending.popleft())

    def render_response(
        self, item: "Union[_Pending, Dict[str, Any]]"
    ) -> Dict[str, Any]:
        """One response dict from a pending record or a ready error.

        Blocks on the pending future if it has not resolved yet; the
        network front-ends await the future first and call this in the
        executor, so it never blocks their event loop.
        """
        if isinstance(item, dict):
            response = item
        else:
            response = self._response(item)
        if response.get("ok"):
            self._metrics.ok.inc()
        else:
            self._metrics.error.inc()
        self._observe_response(item, response)
        return response

    def _observe_response(
        self,
        item: "Union[_Pending, Dict[str, Any]]",
        response: Dict[str, Any],
    ) -> None:
        """Feed one rendered response to the forensic pipeline.

        Runs in the one per-response funnel, so the event log and the
        slow-request table see *every* response from every front-end.
        Both default off (inert log, no threshold), in which case this
        is a handful of cheap checks.
        """
        if isinstance(self.events, NullEventLog) and not self.slow.enabled:
            return
        ok = bool(response.get("ok"))
        latency = response.get("latency_seconds")
        if latency is None and not isinstance(item, dict):
            # Errors out of the queue still have a measurable wait.
            latency = (
                item.done_at or time.perf_counter()
            ) - item.submitted_at
        trace = response.get("trace") or {}
        spans = trace.get("spans", {})
        client = None if isinstance(item, dict) else item.client
        event_fields: Dict[str, Any] = {
            "request_id": response.get("id"),
            "trace": trace.get("id"),
            "client": client if client is not None else "inline",
            "fingerprint": response.get("fingerprint"),
            "algorithm": response.get("algorithm")
            if ok
            else (None if isinstance(item, dict) else item.algorithm),
            "status": "ok" if ok else "error",
            "session_source": response.get("session_source"),
            "coalesce_batch": trace.get("coalesce_batch"),
            "cover_memo": response.get("stats", {}).get("cover_memo"),
            "latency_seconds": None
            if latency is None
            else round(latency, 6),
            "spans": spans,
        }
        if not ok:
            event_fields["error"] = response.get("error")
        self.events.emit("request", **event_fields)
        if (
            self.slow.enabled
            and latency is not None
            and latency >= (self.slow.threshold_seconds or 0.0)
        ):
            record = dict(event_fields)
            record["trace_export"] = trace
            record["stats"] = response.get("stats", {})
            record["queue_depth_at_submit"] = response.get("queue_depth")
            record["queue_depth_now"] = self.queue.depth
            self.slow.note(latency, record)

    def serve(
        self, input_stream: IO[str], output_stream: IO[str]
    ) -> Dict[str, Any]:
        """Batch mode: read every request, write every response, summarise.

        Returns the summary the CLI prints to stderr: request counts,
        manager hit/miss/eviction accounting, latency aggregates, and
        the queue's peak depth.
        """
        started = time.perf_counter()
        responses = 0
        failures = 0
        latencies: List[float] = []
        for response in self.handle_lines(input_stream):
            output_stream.write(json.dumps(response, sort_keys=True) + "\n")
            responses += 1
            if response.get("ok"):
                latencies.append(response["latency_seconds"])
            else:
                failures += 1
        output_stream.flush()
        manager_stats = self.manager.stats
        summary = {
            "requests": responses,
            "ok": responses - failures,
            "failed": failures,
            "wall_seconds": time.perf_counter() - started,
            "sessions_resident": len(self.manager),
            "session_hits": manager_stats.hits,
            "session_misses": manager_stats.misses,
            "evictions": manager_stats.evictions,
            "mean_latency_seconds": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "max_latency_seconds": max(latencies) if latencies else 0.0,
            "peak_queue_depth": self.stats_peak_depth(),
        }
        if self.store is not None:
            store_stats = self.store.stats
            summary["store_hits"] = store_stats.hits
            summary["store_misses"] = store_stats.misses
            summary["store_saves"] = store_stats.saves
            summary["store_bytes"] = self.store.total_bytes()
        return summary

    def stats_peak_depth(self) -> int:
        """Deepest the request queue got during this service's lifetime."""
        return self.queue.stats.peak_depth

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the queue, then close the manager if this service owns it."""
        self.queue.close(drain=True)
        if self._owns_manager:
            self.manager.close()
        if self._owns_events:
            self.events.close()

    def __enter__(self) -> "ServingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_stream(
    input_stream: IO[str],
    output_stream: IO[str],
    **service_kwargs: Any,
) -> Dict[str, Any]:
    """One-call batch serving: build a service, serve, drain, summarise."""
    with ServingService(**service_kwargs) as service:
        return service.serve(input_stream, output_stream)
