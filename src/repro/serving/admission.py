"""The admission core both network front-ends share.

A front-end is a codec — JSONL lines over TCP (:mod:`.server`) or
JSONL bodies over HTTP/1.1 (:mod:`.http`) — on top of
:class:`FrontEnd`, which owns everything between a request line and
its response line:

**Clients and ordered slots.**  A client is one connection.  Every
request line it sends reserves a response slot in arrival order; a
responder task retires the slots in that order, rendering each one in
the executor through :meth:`ServingService.render_response`, so
responses leave in per-client request order however admission
interleaves clients.

**Round-robin admission.**  All clients feed one bounded
:class:`~repro.serving.ServingQueue` through a single admission
coroutine that cycles over the clients with parsed-but-unsubmitted
requests and admits one per turn.  A client streaming thousands of
requests interleaves 1:1 with a client sending two.

**Per-client caps.**  At most ``max_inflight_per_client`` requests per
client are outstanding (admitted, not yet answered).  A line over the
cap is either refused at once with ``{"ok": false, "error": "queue
full"}`` (the socket codec: the client can resend) or waits for a slot
to free (the HTTP codec: the server has already read the body).

**Deadlines from arrival.**  The deadline clock starts when the line or
body arrives, before parsing.  A request already past its
``deadline_seconds`` when its admission turn comes is shed without
spending a queue slot; one that expires while queued is shed by the
queue worker.

**One lifecycle.**  Start, drain-first stop, ``wait_stopped`` and
``close`` are implemented here once, and so are the admission
counters, published as ``repro_server_*{front_end=...}`` and read
through :attr:`FrontEnd.stats`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Awaitable, Callable, Dict, Optional, Set

from ..errors import ConfigurationError, DeadlineExceeded, QueueFull, ServingError
from ..observability import NULL_EVENT_LOG, StatsView, counter, gauge
from .service import ServingService, error_response

__all__ = ["FrontEnd", "QUEUE_FULL_ERROR"]

#: The exact error string a cap (or shared-queue) refusal carries — the
#: documented response vocabulary, asserted by tests.
QUEUE_FULL_ERROR = "queue full"


_RESPONSES = counter(
    "repro_server_responses_total",
    "Response lines rendered, by outcome",
    "front_end", "status",
)


class _Slot:
    """One request's reserved response position in its client's stream.

    Created when the line is accepted and *filled* later: at once with
    a ready error response, or at admission with the queue-pending
    record.  ``admitted`` slots count against the client's cap.
    """

    __slots__ = ("request", "response", "pending", "ready", "admitted")

    def __init__(self) -> None:
        self.request: Any = None
        self.response: Optional[Dict[str, Any]] = None
        self.pending: Any = None
        self.ready = asyncio.Event()
        self.admitted = False

    def resolve_error(self, response: Dict[str, Any]) -> None:
        self.response = response
        self.ready.set()

    def resolve_pending(self, pending: Any) -> None:
        self.pending = pending
        self.ready.set()


class _Client:
    """Per-connection state: the response pipeline and fairness books."""

    __slots__ = (
        "name",
        "slots",
        "admission",
        "outstanding",
        "eof",
        "wake",
        "slot_freed",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        #: Every accepted line, in order — the response pipeline.
        self.slots: "deque[_Slot]" = deque()
        #: The parsed-but-unsubmitted subset the admission loop drains.
        self.admission: "deque[_Slot]" = deque()
        #: Requests admitted but not yet answered (the in-flight cap).
        self.outstanding = 0
        #: No more lines will come: the responder ends once slots empty.
        self.eof = False
        self.wake = asyncio.Event()
        #: Set whenever the responder retires a slot.
        self.slot_freed = asyncio.Event()


class FrontEnd:
    """Lifecycle and fair admission for one network codec.

    Parameters
    ----------
    service:
        An existing service to serve from (its queue, manager, graph
        cache and registry are shared with any other front-end or batch
        use), or ``None`` to own a fresh one built from
        ``**service_kwargs``.
    host / port:
        Bind address; port 0 picks a free port, readable from
        :attr:`port` after :meth:`start`.
    max_inflight_per_client:
        Per-client bound on outstanding requests.
    submit_timeout_seconds:
        Bound on one admission's wait for shared-queue space (``None``:
        wait as long as it takes); a timeout answers that request
        ``"queue full"``.  Fairness is unaffected either way, because
        admission is one request at a time.
    stop_grace_seconds:
        The budget :meth:`stop` spends draining in-flight requests and
        flushing connections before it aborts the transports left.
    """

    #: The ``front_end`` label and event-log value ("socket" / "http").
    kind = ""
    #: Client names are ``<client_prefix>-<n>``, one per connection.
    client_prefix = ""
    #: The stream reader's line limit.
    stream_limit = 64 * 1024
    #: The admission instruments, by ``stats`` name, bound with this
    #: front-end's ``front_end`` label; codecs extend the table.
    #: ``responses`` = ``ok`` + ``failed``; ``queue_full_rejections``
    #: and ``deadline_expired`` are subsets of ``failed``.
    METRICS = {
        "clients_total": counter(
            "repro_server_clients_total", "Connections accepted", "front_end"
        ),
        "clients_active": gauge(
            "repro_server_clients_active", "Connections currently open", "front_end"
        ),
        "requests": counter(
            "repro_server_requests_total", "Request lines parsed", "front_end"
        ),
        "ok": _RESPONSES.labels(status="ok"),
        "failed": _RESPONSES.labels(status="error"),
        "queue_full_rejections": counter(
            "repro_server_queue_full_rejections_total",
            "Per-client in-flight-cap (or shared-queue) refusals",
            "front_end",
        ),
        "deadline_expired": counter(
            "repro_server_deadline_expired_total",
            "Requests shed past their deadline (admission or queue stage)",
            "front_end",
        ),
    }

    def __init__(
        self,
        service: Optional[ServingService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight_per_client: int = 8,
        submit_timeout_seconds: Optional[float] = None,
        stop_grace_seconds: float = 5.0,
        **service_kwargs: Any,
    ) -> None:
        if max_inflight_per_client < 1:
            raise ConfigurationError(
                "max_inflight_per_client must be >= 1, got "
                f"{max_inflight_per_client}"
            )
        self._owns_service = service is None
        self.service = service if service is not None else ServingService(
            **service_kwargs
        )
        self._bind_host = host
        self._bind_port = port
        self.max_inflight_per_client = max_inflight_per_client
        self.submit_timeout_seconds = submit_timeout_seconds
        self.stop_grace_seconds = stop_grace_seconds
        self._metrics = self.service.registry.bind(
            self.METRICS, front_end=self.kind
        )
        self.stats = StatsView(
            self._metrics, responses=lambda view: view.ok + view.failed
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: "deque[_Client]" = deque()  # round-robin order
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handler_tasks: "Set[asyncio.Task]" = set()
        self._admission_task: Optional[asyncio.Task] = None
        self._admission_wake: Optional[asyncio.Event] = None
        self._stopping = False
        #: Set by :meth:`stop` once no connection is left to admit for.
        self._handlers_done = False
        self._stopped: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._inflight = 0
        self._client_serial = 0

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
        """True once :meth:`stop` has begun."""
        return self._stopping

    def _events(self):
        """The service's event log (inert when the stack has none)."""
        # `is None`, not truthiness: an *empty* EventLog is falsy.
        events = getattr(self.service, "events", None)
        return NULL_EVENT_LOG if events is None else events

    async def start(self) -> None:
        """Bind the listener and start the admission loop."""
        if self._server is not None:
            raise ServingError(f"{type(self).__name__} is already started")
        self._admission_wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._connection,
            host=self._bind_host,
            port=self._bind_port,
            limit=self.stream_limit,
        )
        self._admission_task = asyncio.ensure_future(self._admission_loop())
        self._events().emit(
            "server_start", front_end=self.kind, host=self.host, port=self.port
        )

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed (the serve loop)."""
        if self._stopped is None:
            raise ServingError(f"{type(self).__name__} was never started")
        await self._stopped.wait()

    async def stop(self) -> None:
        """Drain, then shut down.  Idempotent.

        Phase one: :attr:`draining` turns true, the codec refuses new
        work, and requests already accepted run to completion while the
        listener stays open (HTTP ``/health`` answers 503 meanwhile).
        Phase two: the listener closes, connection handlers are
        cancelled and flush their remaining responses, and transports
        still open when ``stop_grace_seconds`` (shared by both phases)
        runs out are aborted.  The underlying service stays open —
        :meth:`close` owns that.
        """
        if self._stopping:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        loop = asyncio.get_event_loop()
        give_up_at = loop.time() + self.stop_grace_seconds
        if self._idle is not None:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.stop_grace_seconds
                )
            except asyncio.TimeoutError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        handlers = list(self._handler_tasks)
        for task in handlers:
            task.cancel()
        if handlers:
            _done, still_running = await asyncio.wait(
                handlers, timeout=max(0.0, give_up_at - loop.time())
            )
            if still_running:
                # A connection that will not flush (its client stopped
                # reading) must not stall shutdown: abort the transport
                # so the blocked drain fails and accounting completes.
                for writer in list(self._writers):
                    if writer.transport is not None:
                        writer.transport.abort()
                await asyncio.gather(*still_running, return_exceptions=True)
        self._handlers_done = True
        if self._admission_wake is not None:
            self._admission_wake.set()
        if self._admission_task is not None:
            await self._admission_task
        self._events().emit(
            "server_stop", front_end=self.kind, host=self.host, port=self.port
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

    def _hold(self) -> None:
        """Mark one unit of in-flight work (what :meth:`stop` drains)."""
        self._inflight += 1
        if self._idle is not None:
            self._idle.clear()

    def _release(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self._idle is not None:
            self._idle.set()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._client_serial += 1
        client = _Client(f"{self.client_prefix}-{self._client_serial}")
        self._clients.append(client)
        self._writers.add(writer)
        self._metrics.clients_total.inc()
        self._metrics.clients_active.inc()
        try:
            await self._serve(client, reader, writer)
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,  # LimitOverrunError: a line over stream_limit
        ):
            pass
        finally:
            try:
                self._clients.remove(client)
            except ValueError:
                pass
            self._writers.discard(writer)
            self._metrics.clients_active.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, Exception):
                pass
            if task is not None:
                self._handler_tasks.discard(task)

    async def _serve(
        self,
        client: _Client,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:  # pragma: no cover - every codec overrides
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Accepting lines and retiring slots
    # ------------------------------------------------------------------
    async def _accept(
        self, client: _Client, line: str, arrived: float, wait: bool
    ) -> None:
        """Parse ``line`` and queue it for admission in its client's order.

        ``arrived`` is when the line (or its body) came in: the deadline
        clock.  A parse error is answered in place.  Over the cap, the
        line is refused ``"queue full"`` unless ``wait``, in which case
        it waits for the responder to retire one of the client's slots.
        """
        # Parsing may read a graph file from disk: executor.
        parsed = await asyncio.get_event_loop().run_in_executor(
            None, self.service.parse_line, line
        )
        self._metrics.requests.inc()
        if isinstance(parsed, dict):
            self._refuse(client, parsed)
            return
        parsed.client = client.name  # origin tag for the event log
        parsed.arrived_at = arrived
        while wait and client.outstanding >= self.max_inflight_per_client:
            client.slot_freed.clear()
            await client.slot_freed.wait()
        if client.outstanding >= self.max_inflight_per_client:
            self._metrics.queue_full_rejections.inc()
            self._refuse(
                client, {"id": parsed.id, "ok": False, "error": QUEUE_FULL_ERROR}
            )
            return
        slot = self._reserve(client)
        slot.request = parsed
        slot.admitted = True
        client.outstanding += 1
        client.admission.append(slot)
        if self._admission_wake is not None:
            self._admission_wake.set()

    def _reserve(self, client: _Client) -> _Slot:
        """Append a response slot to ``client``'s pipeline."""
        self._hold()
        slot = _Slot()
        client.slots.append(slot)
        client.wake.set()
        return slot

    def _refuse(self, client: _Client, response: Dict[str, Any]) -> None:
        """Answer one line with ``response``, in order, without admitting it."""
        self._reserve(client).resolve_error(response)

    async def _retire_slots(
        self,
        client: _Client,
        emit: Callable[[Dict[str, Any]], Awaitable[None]],
    ) -> None:
        """Retire ``client``'s slots in request order until ``eof``.

        Every response — errors included — is rendered in the executor
        by :meth:`ServingService.render_response`, so the service's
        event log, SLO and slow-request table see each one.  The slot
        frees its cap place when its response is handed to ``emit``.
        """
        loop = asyncio.get_event_loop()
        while True:
            while not client.slots:
                if client.eof:
                    return
                client.wake.clear()
                await client.wake.wait()
            slot = client.slots[0]
            await slot.ready.wait()
            item = slot.response
            if item is None:
                item = slot.pending
                waiter = asyncio.wrap_future(item.future)
                # wait() never raises the request's own failure (that is
                # render_response's to report), and cancelling this task
                # does not cancel the request.
                await asyncio.wait([waiter])
                if not waiter.cancelled() and isinstance(
                    waiter.exception(), DeadlineExceeded
                ):
                    self._metrics.deadline_expired.inc()
            response = await loop.run_in_executor(
                None, self.service.render_response, item
            )
            client.slots.popleft()
            if slot.admitted:
                client.outstanding -= 1
            client.slot_freed.set()
            if response.get("ok"):
                self._metrics.ok.inc()
            else:
                self._metrics.failed.inc()
            self._release()
            await emit(response)

    # ------------------------------------------------------------------
    # Fair admission
    # ------------------------------------------------------------------
    async def _admission_loop(self) -> None:
        """Round-robin one submission at a time across ready clients.

        Strict fairness comes from the single consumer: each cycle
        admits at most one request per client with work waiting, and
        the shared-queue space wait (in the executor) paces everyone
        equally because nobody else can slip a request in around it.
        """
        assert self._admission_wake is not None
        loop = asyncio.get_event_loop()
        while True:
            client = None
            for _ in range(len(self._clients)):
                candidate = self._clients[0]
                self._clients.rotate(-1)
                if candidate.admission:
                    client = candidate
                    break
            if client is None:
                if self._handlers_done:
                    return
                self._admission_wake.clear()
                # Re-check before sleeping: a slot appended (or stop
                # requested) after the scan above sets the event.
                if any(c.admission for c in self._clients):
                    continue
                await self._admission_wake.wait()
                continue
            slot = client.admission.popleft()
            request = slot.request
            waited = time.perf_counter() - request.arrived_at
            deadline = request.deadline_seconds
            if deadline is not None and waited > deadline:
                # Dead on arrival at admission: shed here rather than
                # spend a queue slot on it.  The queue never saw this
                # request, so report the shed to its admission-stage
                # expiry counter explicitly.
                self._metrics.deadline_expired.inc()
                self.service.queue.note_admission_expired(request)
                slot.resolve_error(
                    error_response(
                        request.id,
                        DeadlineExceeded(
                            f"deadline of {deadline}s exceeded after "
                            f"{waited:.3f}s awaiting admission",
                            deadline_seconds=deadline,
                            waited_seconds=waited,
                        ),
                    )
                )
                continue
            try:
                pending = await loop.run_in_executor(
                    None,
                    self.service.submit_pending,
                    request,
                    self.submit_timeout_seconds,
                )
            except QueueFull:
                self._metrics.queue_full_rejections.inc()
                slot.resolve_error(
                    {"id": request.id, "ok": False, "error": QUEUE_FULL_ERROR}
                )
            except ServingError as error:
                slot.resolve_error(error_response(request.id, error))
            else:
                slot.resolve_pending(pending)
