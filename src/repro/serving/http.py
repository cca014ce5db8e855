"""The HTTP front-end: /health, /metrics, and JSONL /detect over HTTP/1.1.

The socket front-end (:mod:`repro.serving.server`) gives remote
clients the raw JSONL stream; this module gives *operators* the three
endpoints production infrastructure expects, speaking plain HTTP/1.1
over asyncio streams — no web framework, stdlib only:

``GET /health``
    Readiness: ``200 {"status": "ready", ...}`` while serving,
    ``503 {"status": "draining", ...}`` once :meth:`HttpServer.stop`
    has begun — the flip a load balancer watches to stop routing before
    the listener goes away.  The body carries live queue depth and
    resident-session counts either way.

``GET /metrics``
    A Prometheus text-format scrape of the service's
    :class:`~repro.observability.MetricsRegistry` — every layer (queue,
    manager, sessions, service, both front-ends) publishes into the one
    registry the service roots, so one scrape sees the whole stack.

``POST /detect``
    The exact JSONL service schema, one request per body line, one
    response per body line, in order.  Parsing, submission, and
    response rendering reuse :meth:`ServingService.parse_line` /
    :meth:`ServingService.submit_pending` /
    :meth:`ServingService.render_response` verbatim, so a cover served
    over HTTP is byte-identical to one served over the socket, from a
    batch file, or from a direct ``GraphSession.detect``.

``GET /debug/events?n=N&kind=K``
    The tail of the service's structured event log (the in-memory
    flight recorder), newest last, optionally bounded to the last ``N``
    events and filtered by kind — the first place to look after an
    incident.

``GET /debug/slow?n=N``
    The worst-N slowest requests captured by ``--slow-threshold-seconds``,
    slowest first, each with its full trace spans, engine stats, and
    queue context.

``GET /debug/vars``
    The registry's flat snapshot (``name{labels} -> value``) as one
    JSON object — every counter/gauge/histogram, no Prometheus tooling
    required.

``GET /debug/profile?seconds=S``
    An on-demand sampling profile of the live process: samples every
    thread's Python stack for ``S`` seconds (default 1, capped at 60)
    and returns collapsed-stack text (``stack count`` lines) ready for
    any flamegraph renderer.  One run at a time — a concurrent request
    gets 503.

Blocking work (parsing, which may read a graph file; queue-space
waits; response rendering) runs in the event loop's default executor,
exactly like the socket front-end.  Connections are keep-alive by
default (``Connection: close`` honoured); request bodies must carry
``Content-Length`` (no chunked uploads) and are bounded by
``max_body_bytes``.

Shutdown is drain-first: :meth:`stop` flips /health to draining,
keeps answering /health and /metrics (and refuses new /detect with
503) while in-flight detect requests finish — up to
``stop_grace_seconds`` — then closes the listener and every
connection.  :meth:`close` (after :meth:`stop`, off the loop) closes
the owned service.

Usage::

    server = HttpServer(host="127.0.0.1", port=0, max_sessions=4)
    await server.start()
    ...                      # curl http://host:port/health
    await server.stop()      # drain, then close connections
    server.close()           # close the owned service

or synchronously (tests, benchmarks, the CLI smoke)::

    with start_http_thread(max_sessions=4) as handle:
        conn = http.client.HTTPConnection(handle.host, handle.port)
        ...
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import CancelledError
from typing import Any, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qs

from ..errors import ConfigurationError, QueueFull, ServingError
from ..observability import NULL_EVENT_LOG, MetricsRegistry, SamplingProfiler
from .service import ServingService, error_response

__all__ = ["HttpServer", "HttpHandle", "start_http_thread"]

#: Prometheus text exposition format, version 0.0.4 — the content type
#: scrapers negotiate for.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: One JSON document per line — what /detect request and response
#: bodies are.
JSONL_CONTENT_TYPE = "application/x-ndjson"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Bound on one header line / the whole header block: requests are tiny
#: (the payload is the body), so anything bigger is malformed or abuse.
_MAX_HEADER_BYTES = 64 * 1024


class _HttpMetrics:
    """The HTTP front-end's registry instruments."""

    #: The label vocabulary for request paths: known endpoints plus one
    #: bucket for everything else, so scrape cardinality stays fixed no
    #: matter what paths clients probe.
    KNOWN_PATHS = (
        "/health",
        "/metrics",
        "/detect",
        "/debug/events",
        "/debug/slow",
        "/debug/vars",
        "/debug/profile",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.connections = registry.counter(
            "repro_http_connections_total", "HTTP connections accepted"
        )
        self._requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests received, by path",
            labelnames=("path",),
        )
        self._responses = registry.counter(
            "repro_http_responses_total",
            "HTTP responses written, by status code",
            labelnames=("code",),
        )
        self.oversized = registry.counter(
            "repro_http_oversized_total",
            "Requests refused for exceeding max_body_bytes",
        )
        self.inflight = registry.gauge(
            "repro_http_detect_inflight",
            "POST /detect requests currently being served",
        )

    def request(self, path: str) -> None:
        label = path if path in self.KNOWN_PATHS else "other"
        self._requests.labels(path=label).inc()

    def response(self, code: int) -> None:
        self._responses.labels(code=str(code)).inc()


class HttpServer:
    """A stdlib-asyncio HTTP/1.1 server over one :class:`ServingService`.

    Parameters
    ----------
    service:
        An existing service to serve from (shared with a socket server
        or batch use — same queue, manager, graph cache, and registry),
        or ``None`` to own a fresh one built from ``**service_kwargs``.
    host / port:
        Bind address; port 0 picks a free port, readable from
        :attr:`port` after :meth:`start`.
    max_body_bytes:
        Bound on one /detect request body (default 64 MiB — a body is
        many JSONL lines, each of which may inline an edge list).
        Oversized requests are refused with 413 before the body is
        read.
    submit_timeout_seconds:
        Bound on one request's wait for shared-queue space (``None``:
        wait as long as it takes); a timeout becomes that line's
        ``ok: false`` response, never an HTTP error.
    stop_grace_seconds:
        How long :meth:`stop` keeps draining — /health answering 503,
        in-flight /detect requests finishing — before connections are
        closed regardless.
    """

    def __init__(
        self,
        service: Optional[ServingService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 64 * 1024 * 1024,
        submit_timeout_seconds: Optional[float] = None,
        stop_grace_seconds: float = 5.0,
        **service_kwargs: Any,
    ) -> None:
        if max_body_bytes < 1:
            raise ConfigurationError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self._owns_service = service is None
        self.service = service if service is not None else ServingService(
            **service_kwargs
        )
        self._bind_host = host
        self._bind_port = port
        self.max_body_bytes = max_body_bytes
        self.submit_timeout_seconds = submit_timeout_seconds
        self.stop_grace_seconds = stop_grace_seconds
        self._metrics = _HttpMetrics(self.service.registry)
        self._server: Optional[asyncio.AbstractServer] = None
        self._handler_tasks: "Set[asyncio.Task]" = set()
        self._writers: "Set[asyncio.StreamWriter]" = set()
        self._draining = False
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self._inflight_detects = 0
        self._idle: Optional[asyncio.Event] = None
        self._started_at: Optional[float] = None
        self._profiler = SamplingProfiler()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound host (valid after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[0]
        return self._bind_host

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._bind_port

    @property
    def draining(self) -> bool:
        """True once :meth:`stop` has begun (what /health reports)."""
        return self._draining

    async def start(self) -> None:
        """Bind the listener and begin serving."""
        if self._server is not None:
            raise ServingError("HttpServer is already started")
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self._bind_host,
            port=self._bind_port,
            limit=_MAX_HEADER_BYTES,
        )
        self._started_at = time.time()
        self._events().emit(
            "server_start", front_end="http", host=self.host, port=self.port
        )

    def _events(self):
        """The service's event log (inert when the stack has none)."""
        # `is None`, not truthiness: an *empty* EventLog is falsy.
        events = getattr(self.service, "events", None)
        return NULL_EVENT_LOG if events is None else events

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed (the serve loop)."""
        if self._stopped is None:
            raise ServingError("HttpServer was never started")
        await self._stopped.wait()

    async def stop(self) -> None:
        """Drain, then shut down.  Idempotent.

        Phase one (up to ``stop_grace_seconds``): /health flips to
        ``503 draining``, new /detect requests are refused with 503,
        and in-flight /detect requests run to completion — the window
        in which a load balancer notices and stops routing.  Phase two:
        the listener and every connection close.  The underlying
        service (queue + manager) stays open — :meth:`close` owns that.
        """
        if self._stopping:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        self._draining = True
        if self._idle is not None and self._inflight_detects > 0:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.stop_grace_seconds
                )
            except asyncio.TimeoutError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._handler_tasks):
            task.cancel()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._handler_tasks:
            await asyncio.gather(
                *list(self._handler_tasks), return_exceptions=True
            )
        self._events().emit(
            "server_stop", front_end="http", host=self.host, port=self.port
        )
        if self._stopped is not None:
            self._stopped.set()

    def close(self) -> None:
        """Close the owned service (drains its queue); not the listener.

        Call after :meth:`stop`, from outside the event loop (the queue
        drain blocks).  A caller-supplied service is left open.
        """
        if self._owns_service:
            self.service.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._metrics.connections.inc()
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,  # LimitOverrunError: an oversized header line
        ):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, Exception):
                pass
            if task is not None:
                self._handler_tasks.discard(task)

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; return whether to keep the connection."""
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, target, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._respond_json(
                writer, 400, {"error": "malformed request line"}, False
            )
            return False
        headers = await self._read_headers(reader)
        if headers is None:
            await self._respond_json(
                writer, 400, {"error": "malformed headers"}, False
            )
            return False
        path, _, query = target.partition("?")
        self._metrics.request(path)
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and version != "HTTP/1.0"
        )
        if path == "/health":
            if method != "GET":
                return await self._method_not_allowed(writer, "GET", keep_alive)
            return await self._serve_health(writer, keep_alive)
        if path == "/metrics":
            if method != "GET":
                return await self._method_not_allowed(writer, "GET", keep_alive)
            return await self._serve_metrics(writer, keep_alive)
        if path.startswith("/debug/"):
            if method != "GET":
                return await self._method_not_allowed(writer, "GET", keep_alive)
            return await self._serve_debug(writer, path, query, keep_alive)
        if path == "/detect":
            if method != "POST":
                return await self._method_not_allowed(
                    writer, "POST", keep_alive
                )
            return await self._serve_detect(reader, writer, headers, keep_alive)
        await self._respond_json(
            writer, 404, {"error": f"no such endpoint: {path}"}, keep_alive
        )
        return keep_alive

    async def _read_headers(
        self, reader: asyncio.StreamReader
    ) -> Optional[Dict[str, str]]:
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _health_payload(self) -> Dict[str, Any]:
        # Imported lazily: repro.serving is imported while the top-level
        # repro package initialises, so a module-level import of the
        # version attribute would race that initialisation.
        from .. import __version__

        return {
            "status": "draining" if self._draining else "ready",
            "queue_depth": self.service.queue.depth,
            "sessions_resident": len(self.service.manager),
            # Rolling-restart forensics: which process, up how long,
            # running which build.
            "pid": os.getpid(),
            "uptime_seconds": (
                round(time.time() - self._started_at, 3)
                if self._started_at is not None
                else 0.0
            ),
            "version": __version__,
        }

    async def _serve_health(
        self, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        code = 503 if self._draining else 200
        await self._respond_json(
            writer, code, self._health_payload(), keep_alive
        )
        return keep_alive

    async def _serve_metrics(
        self, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        body = self.service.registry.render().encode("utf-8")
        await self._respond(
            writer, 200, body, METRICS_CONTENT_TYPE, keep_alive
        )
        return keep_alive

    async def _serve_debug(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        query: str,
        keep_alive: bool,
    ) -> bool:
        """Route one ``/debug/*`` request (all GET, all operator-facing)."""
        params = parse_qs(query, keep_blank_values=False)

        def _int_param(name: str, default: Optional[int]) -> Optional[int]:
            values = params.get(name)
            if not values:
                return default
            return int(values[0])

        try:
            if path == "/debug/events":
                n = _int_param("n", None)
                kind = params.get("kind", [None])[0]
                events = self._events()
                await self._respond_json(
                    writer,
                    200,
                    {
                        "events": events.tail(n=n, kind=kind),
                        "buffered": len(events),
                        "dropped": events.dropped,
                    },
                    keep_alive,
                )
                return keep_alive
            if path == "/debug/slow":
                n = _int_param("n", None)
                slow = self.service.slow
                await self._respond_json(
                    writer,
                    200,
                    {
                        "requests": slow.worst(n),
                        "threshold_seconds": slow.threshold_seconds,
                        "captured": slow.captured,
                    },
                    keep_alive,
                )
                return keep_alive
            if path == "/debug/vars":
                await self._respond_json(
                    writer,
                    200,
                    dict(self.service.registry.snapshot()),
                    keep_alive,
                )
                return keep_alive
            if path == "/debug/profile":
                seconds = float(params.get("seconds", ["1"])[0])
                return await self._serve_profile(writer, seconds, keep_alive)
        except (ValueError, TypeError) as error:
            await self._respond_json(
                writer, 400, {"error": f"bad query parameter: {error}"},
                keep_alive,
            )
            return keep_alive
        await self._respond_json(
            writer, 404, {"error": f"no such endpoint: {path}"}, keep_alive
        )
        return keep_alive

    async def _serve_profile(
        self, writer: asyncio.StreamWriter, seconds: float, keep_alive: bool
    ) -> bool:
        """Run one sampling-profiler pass and serve its collapsed stacks.

        The blocking sample window runs in the executor so the event
        loop keeps serving /health and /metrics throughout; the cap
        keeps one curl from pinning the sampler for minutes.
        """
        if not 0 < seconds <= 60:
            await self._respond_json(
                writer,
                400,
                {"error": "seconds must be in (0, 60]"},
                keep_alive,
            )
            return keep_alive
        loop = asyncio.get_event_loop()
        try:
            report = await loop.run_in_executor(
                None, self._profiler.profile, seconds
            )
        except RuntimeError:
            await self._respond_json(
                writer,
                503,
                {"error": "a profiling run is already active"},
                keep_alive,
            )
            return keep_alive
        header = (
            f"# samples: {report.samples} seconds: {report.seconds:.3f} "
            f"interval: {report.interval_seconds}\n"
        )
        await self._respond(
            writer,
            200,
            (header + report.collapsed()).encode("utf-8"),
            "text/plain; charset=utf-8",
            keep_alive,
        )
        return keep_alive

    async def _serve_detect(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
        keep_alive: bool,
    ) -> bool:
        if self._draining:
            await self._respond_json(
                writer, 503, {"error": "draining"}, False
            )
            return False
        if "transfer-encoding" in headers:
            await self._respond_json(
                writer,
                501,
                {"error": "chunked request bodies are not supported"},
                False,
            )
            return False
        length_text = headers.get("content-length")
        if length_text is None:
            await self._respond_json(
                writer, 411, {"error": "Content-Length required"}, False
            )
            return False
        try:
            length = int(length_text)
            if length < 0:
                raise ValueError
        except ValueError:
            await self._respond_json(
                writer, 400, {"error": "bad Content-Length"}, False
            )
            return False
        if length > self.max_body_bytes:
            # Refused before the body is read: the connection cannot be
            # reused (the unread body is still in flight), so close it.
            self._metrics.oversized.inc()
            await self._respond_json(
                writer,
                413,
                {
                    "error": (
                        f"request body of {length} bytes exceeds "
                        f"max_body_bytes={self.max_body_bytes}"
                    )
                },
                False,
            )
            return False
        body = await reader.readexactly(length) if length else b""
        self._inflight_detects += 1
        if self._idle is not None:
            self._idle.clear()
        try:
            payload = await self._detect_body(
                body.decode("utf-8", errors="replace")
            )
        finally:
            self._inflight_detects -= 1
            if self._inflight_detects == 0 and self._idle is not None:
                self._idle.set()
        await self._respond(
            writer,
            200,
            payload.encode("utf-8"),
            JSONL_CONTENT_TYPE,
            keep_alive,
        )
        return keep_alive

    async def _detect_body(self, body_text: str) -> str:
        """The JSONL response body for one /detect request body.

        The socket front-end's exact pipeline, minus the fairness
        machinery one ordered body does not need: parse each line and
        submit it immediately (pipelined — later lines enter the queue
        while earlier ones compute), then render every response in
        request order.  All three steps are the service's own helpers,
        so the covers and the per-line error vocabulary are identical
        across front-ends.
        """
        loop = asyncio.get_event_loop()
        items: List[Union[Dict[str, Any], Any]] = []
        for line in body_text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # Parsing may read a graph file from disk: executor.
            parsed = await loop.run_in_executor(
                None, self.service.parse_line, line
            )
            if isinstance(parsed, dict):
                items.append(parsed)
                continue
            parsed.arrived_at = time.perf_counter()
            parsed.client = "http"  # origin tag for the event log
            try:
                # The queue-space wait blocks: executor.
                pending = await loop.run_in_executor(
                    None,
                    self.service.submit_pending,
                    parsed,
                    self.submit_timeout_seconds,
                )
            except (QueueFull, ServingError) as error:
                items.append(error_response(parsed.id, error))
            else:
                items.append(pending)
        chunks: List[str] = []
        for item in items:
            if not isinstance(item, dict):
                try:
                    await asyncio.wrap_future(item.future)
                except (Exception, CancelledError, asyncio.CancelledError):
                    pass  # render_response reports the failure per-line
            response = await loop.run_in_executor(
                None, self.service.render_response, item
            )
            chunks.append(json.dumps(response, sort_keys=True))
        return "\n".join(chunks) + ("\n" if chunks else "")

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        await self._respond(
            writer, code, body, "application/json", keep_alive
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        body: bytes,
        content_type: str,
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(code, "Unknown")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        self._metrics.response(code)
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # The client went away mid-write; the handler loop's next
            # read sees EOF and retires the connection.
            pass

    async def _method_not_allowed(
        self, writer: asyncio.StreamWriter, allowed: str, keep_alive: bool
    ) -> bool:
        await self._respond_json(
            writer,
            405,
            {"error": f"method not allowed (use {allowed})"},
            keep_alive,
        )
        return keep_alive


# ----------------------------------------------------------------------
# Synchronous driver (tests, benchmarks, the CLI smoke)
# ----------------------------------------------------------------------
class HttpHandle:
    """A running :class:`HttpServer` on a background event loop.

    Context-manager: ``stop()`` (or exit) drains the server, joins the
    loop thread, and closes the owned service.
    """

    def __init__(
        self,
        server: HttpServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server, join its thread, close the owned service."""
        if self._thread.is_alive():
            # A stop already begun out-of-band ends the loop thread by
            # itself.  A second stop scheduled onto that loop while
            # asyncio.run tears it down would never run, and the wait
            # on it would time out, so only the join is left to do.
            if not self.server.draining:
                try:
                    asyncio.run_coroutine_threadsafe(
                        self.server.stop(), self._loop
                    ).result(timeout=timeout)
                except (CancelledError, RuntimeError):
                    # The loop finished tearing down first.
                    pass
            self._thread.join(timeout=timeout)
        self.server.close()

    def __enter__(self) -> "HttpHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_http_thread(timeout: float = 30.0, **server_kwargs: Any) -> HttpHandle:
    """Start an :class:`HttpServer` on a dedicated loop thread.

    Blocks until the listener is bound (so ``handle.port`` is real) and
    returns the handle; raises whatever :meth:`HttpServer.start` raised
    (e.g. a busy port) instead of leaking a half-started thread.
    """
    server = HttpServer(**server_kwargs)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        async def _main() -> None:
            try:
                await server.start()
            except BaseException as error:  # surface bind failures
                box["error"] = error
                started.set()
                return
            box["loop"] = asyncio.get_event_loop()
            started.set()
            await server.wait_stopped()

        asyncio.run(_main())

    thread = threading.Thread(target=_run, name="repro-serve-http", daemon=True)
    thread.start()
    if not started.wait(timeout=timeout):
        raise ServingError("HTTP server failed to start in time")
    if "error" in box:
        thread.join(timeout=timeout)
        raise box["error"]
    return HttpHandle(server, box["loop"], thread)
