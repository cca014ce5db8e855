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
    response per body line, in order.  Each line goes through the
    admission core (:class:`~repro.serving.admission.FrontEnd`) exactly
    like a socket line: the connection is the client (tagged
    ``http-<n>`` in the event log), admission is round-robin with the
    socket clients, the deadline clock starts when the body arrives,
    and a line over ``max_inflight_per_client`` waits for a free slot
    (the body is already read, so refusing it would only lose it).  A
    cover served over HTTP is byte-identical to one served over the
    socket, from a batch file, or from a direct ``GraphSession.detect``.

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

Shutdown is the core's drain-first stop: /health flips to draining,
/health and /metrics keep answering (new /detect gets 503) while
in-flight detect requests finish — up to ``stop_grace_seconds`` — then
the listener and every connection close.  :meth:`close` (after
:meth:`stop`, off the loop) closes the owned service.

Usage::

    server = HttpServer(host="127.0.0.1", port=0, max_sessions=4)
    await server.start()
    ...                      # curl http://host:port/health
    await server.stop()      # drain, then close connections
    server.close()           # close the owned service

or synchronously (tests, benchmarks, the CLI smoke)::

    with start_server_thread(HttpServer, max_sessions=4) as handle:
        conn = http.client.HTTPConnection(handle.host, handle.port)
        ...
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs

from ..errors import ConfigurationError
from ..observability import SamplingProfiler, counter, gauge
from .admission import FrontEnd, _Client
from .service import ServingService

__all__ = ["HttpServer"]

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


#: The label vocabulary for request paths: known endpoints plus one
#: bucket for everything else, so scrape cardinality stays fixed no
#: matter what paths clients probe.
_KNOWN_PATHS = (
    "/health",
    "/metrics",
    "/detect",
    "/debug/events",
    "/debug/slow",
    "/debug/vars",
    "/debug/profile",
)


class HttpServer(FrontEnd):
    """A stdlib-asyncio HTTP/1.1 server over one :class:`ServingService`.

    Takes :class:`~repro.serving.admission.FrontEnd`'s parameters plus:

    max_body_bytes:
        Bound on one /detect request body (default 64 MiB — a body is
        many JSONL lines, each of which may inline an edge list).
        Oversized requests are refused with 413 before the body is
        read.

    A shared-queue timeout (``submit_timeout_seconds``) becomes that
    line's ``ok: false`` response, never an HTTP error.
    """

    kind = "http"
    client_prefix = "http"
    stream_limit = _MAX_HEADER_BYTES
    METRICS = {
        **FrontEnd.METRICS,
        "oversized_drops": counter(
            "repro_http_oversized_total",
            "Requests refused for exceeding max_body_bytes",
        ),
        "http_requests": counter(
            "repro_http_requests_total", "HTTP requests received, by path", "path"
        ),
        "http_responses": counter(
            "repro_http_responses_total",
            "HTTP responses written, by status code",
            "code",
        ),
        "detect_inflight": gauge(
            "repro_http_detect_inflight", "POST /detect requests currently being served"
        ),
    }

    def __init__(
        self,
        service: Optional[ServingService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 64 * 1024 * 1024,
        **kwargs: Any,
    ) -> None:
        if max_body_bytes < 1:
            raise ConfigurationError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.max_body_bytes = max_body_bytes
        super().__init__(service, host, port, **kwargs)
        self._started_at: Optional[float] = None
        self._profiler = SamplingProfiler()

    async def start(self) -> None:
        await super().start()
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve(self, client: _Client, reader, writer) -> None:
        while await self._serve_one(client, reader, writer):
            pass

    async def _serve_one(
        self,
        client: _Client,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
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
        self._metrics.http_requests.labels(
            path if path in _KNOWN_PATHS else "other"
        ).inc()
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
            return await self._serve_detect(
                client, reader, writer, headers, keep_alive
            )
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
            "status": "draining" if self.draining else "ready",
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
        code = 503 if self.draining else 200
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
        client: _Client,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
        keep_alive: bool,
    ) -> bool:
        if self.draining:
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
            self._metrics.oversized_drops.inc()
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
        arrived = time.perf_counter()
        # The whole exchange is one unit of in-flight work: a graceful
        # stop waits for its response to be written.
        self._hold()
        self._metrics.detect_inflight.inc()
        try:
            payload = await self._detect_body(
                client, body.decode("utf-8", errors="replace"), arrived
            )
            await self._respond(
                writer,
                200,
                payload.encode("utf-8"),
                JSONL_CONTENT_TYPE,
                keep_alive,
            )
        finally:
            self._metrics.detect_inflight.dec()
            self._release()
        return keep_alive

    async def _detect_body(
        self, client: _Client, body_text: str, arrived: float
    ) -> str:
        """The JSONL response body for one /detect request body.

        Each line goes through the admission core like a socket line —
        same fairness turn, deadline clock from the body's arrival —
        except that a line over the client's cap waits for a free slot
        instead of being refused: the body has already been read.
        Responses come back in request order.
        """
        chunks: List[str] = []

        async def collect(response: Dict[str, Any]) -> None:
            chunks.append(json.dumps(response, sort_keys=True))

        client.eof = False
        responder = asyncio.ensure_future(self._retire_slots(client, collect))
        try:
            for line in body_text.splitlines():
                line = line.strip()
                if line and not line.startswith("#"):
                    await self._accept(client, line, arrived, wait=True)
            client.eof = True
            client.wake.set()
            await responder
        finally:
            responder.cancel()
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
        self._metrics.http_responses.labels(str(code)).inc()
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
