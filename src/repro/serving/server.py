"""The socket front-end: JSONL lines over TCP, and the thread driver.

:class:`ServingServer` speaks exactly the service's JSONL schema — one
JSON request per line in, one JSON response per line out, responses in
per-client request order — through the admission core
(:class:`~repro.serving.admission.FrontEnd`): round-robin fairness
across connections, per-client in-flight caps, deadlines from line
arrival, and drain-first stop.  A cover served over a socket is
byte-identical to one served over HTTP, from a batch file, or from a
direct ``GraphSession.detect``.

This codec only turns bytes into request lines: it reads lines, hands
each to the core with the cap rule *refuse* (a line over
``max_inflight_per_client`` is answered ``{"ok": false, "error":
"queue full"}`` at once — the client can resend), and writes the
responses back.  A line arriving while the server drains is answered
``{"ok": false, "error": "draining"}``.

Usage::

    server = ServingServer(host="127.0.0.1", port=0, max_sessions=4)
    await server.start()
    ...                      # clients connect to server.host:server.port
    await server.stop()      # drain, flush in-flight responses
    server.close()           # close the owned service (queue + manager)

or synchronously (tests, benchmarks, the CLI smoke), for either
front-end::

    with start_server_thread(max_sessions=4) as handle:
        sock = socket.create_connection((handle.host, handle.port))
        ...
    with start_server_thread(HttpServer, max_sessions=4) as handle:
        ...
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import CancelledError
from typing import Any, Dict, Type

from ..errors import ConfigurationError, ServingError
from ..observability import counter
from .admission import FrontEnd, _Client

__all__ = ["ServingServer", "ServerHandle", "start_server_thread"]


class ServingServer(FrontEnd):
    """An asyncio TCP server feeding one :class:`ServingService`.

    Takes :class:`~repro.serving.admission.FrontEnd`'s parameters plus:

    max_line_bytes:
        Stream-reader line limit (default 16 MiB — inline edge lists
        are big).  A client exceeding it has its connection dropped
        after the buffered responses flush; the server keeps serving
        everyone else.

    A client that sends without reading cannot balloon the server:
    once ``max(16, 2 * max_inflight_per_client)`` responses are
    buffered for a connection, its reader stops consuming lines until
    the responder retires some — TCP backpressure does the rest.
    """

    kind = "socket"
    client_prefix = "client"
    METRICS = {
        **FrontEnd.METRICS,
        "oversized_drops": counter(
            "repro_server_oversized_drops_total",
            "Connections dropped for exceeding max_line_bytes",
        ),
    }

    def __init__(
        self,
        service=None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = 16 * 1024 * 1024,
        **kwargs: Any,
    ) -> None:
        if max_line_bytes < 1:
            raise ConfigurationError(
                f"max_line_bytes must be >= 1, got {max_line_bytes}"
            )
        self.stream_limit = self.max_line_bytes = max_line_bytes
        super().__init__(service, host, port, **kwargs)
        self.max_buffered_responses = max(16, 2 * self.max_inflight_per_client)

    async def _serve(self, client: _Client, reader, writer) -> None:
        broken = False

        async def write_line(response: Dict[str, Any]) -> None:
            nonlocal broken
            if broken:
                return
            try:
                writer.write(
                    (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
                )
                await writer.drain()
            except ConnectionError:
                # The client went away: keep retiring slots (their
                # futures resolve regardless) but stop writing.
                broken = True

        responder = asyncio.ensure_future(
            self._retire_slots(client, write_line)
        )
        try:
            while True:
                # Flow control: a client that sends without reading its
                # responses parks here once the buffer is at its bound,
                # so its unread lines stay in the TCP window, not in
                # server memory.
                while len(client.slots) >= self.max_buffered_responses:
                    client.slot_freed.clear()
                    await client.slot_freed.wait()
                line_bytes = await reader.readline()
                if not line_bytes:
                    break
                arrived = time.perf_counter()
                line = line_bytes.decode("utf-8", errors="replace").strip()
                if not line or line.startswith("#"):
                    continue
                if self.draining:
                    self._refuse(
                        client, {"id": None, "ok": False, "error": "draining"}
                    )
                    continue
                await self._accept(client, line, arrived, wait=False)
        except ValueError:
            # LimitOverrunError (a ValueError): an oversized line.  The
            # stream is unrecoverable mid-line, so stop reading — the
            # finally still flushes every buffered response.
            self._metrics.oversized_drops.inc()
        finally:
            client.eof = True
            client.wake.set()
            try:
                await responder
            except (asyncio.CancelledError, Exception):
                pass


# ----------------------------------------------------------------------
# Synchronous driver (tests, benchmarks, CLI smoke)
# ----------------------------------------------------------------------
class ServerHandle:
    """A running front-end on a background event loop.

    Context-manager: ``stop()`` (or exit) drains the server, joins the
    loop thread, and closes the owned service.
    """

    def __init__(
        self,
        server: FrontEnd,
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

    @property
    def stats(self):
        return self.server.stats

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

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(
    front_end: Type[FrontEnd] = ServingServer,
    timeout: float = 30.0,
    **server_kwargs: Any,
) -> ServerHandle:
    """Start a ``front_end`` server on a dedicated loop thread.

    Blocks until the listener is bound (so ``handle.port`` is real) and
    returns the handle; raises whatever :meth:`FrontEnd.start` raised
    (e.g. a busy port) instead of leaking a half-started thread.
    """
    server = front_end(**server_kwargs)
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

    thread = threading.Thread(
        target=_run, name=f"repro-serve-{server.kind}", daemon=True
    )
    thread.start()
    if not started.wait(timeout=timeout):
        raise ServingError(f"{server.kind} server failed to start in time")
    if "error" in box:
        thread.join(timeout=timeout)
        raise box["error"]
    return ServerHandle(server, box["loop"], thread)
