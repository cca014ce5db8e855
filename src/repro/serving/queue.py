"""ServingQueue: bounded, asynchronous admission over a SessionManager.

The manager serves synchronously: callers block for the whole detect.
Real serving traffic arrives faster than single detects complete and
must be *admitted* (or refused) immediately — so this module puts a
classic bounded request queue in front of the manager:

* :meth:`ServingQueue.submit` enqueues a :class:`ServeRequest` and
  returns a :class:`concurrent.futures.Future` at once;
* a small pool of worker threads drains the queue through
  :meth:`SessionManager.detect` — requests for different graphs run
  concurrently on their sessions' persistent pools, requests for the
  same graph serialize on its session;
* a full queue refuses the request with
  :class:`~repro.errors.QueueFull` (backpressure: the caller decides
  whether to retry, shed, or block), never by silently buffering
  unboundedly;
* a request carrying ``deadline_seconds`` that is still queued when its
  deadline passes is *shed*: the worker resolves its future with
  :class:`~repro.errors.DeadlineExceeded` instead of running a detect
  nobody is waiting for;
* :meth:`ServingQueue.close` drains gracefully by default — accepted
  work completes, its futures resolve — or cancels pending requests
  with ``drain=False``;
* a dequeuing worker *coalesces*: it opportunistically drains further
  queued requests for the **same graph fingerprint** (bounded by the
  ``coalesce`` limit) and serves the whole group back-to-back on that
  graph's warm session.  Same-fingerprint requests would serialize on
  the session anyway — grouping them on one worker costs no
  parallelism, keeps the session hot and MRU for the entire group, and
  frees the other workers for other graphs.  Every member keeps its own
  future, deadline check, and trace; the group only shares the session
  locality (and a ``coalesce_batch`` trace mark).

Determinism is inherited, not re-proven: each request is served by a
plain ``manager.detect`` call, so the cover for (graph, algorithm,
seed, params) is byte-identical to a direct synchronous call no matter
how many queue workers race or how requests are coalesced.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .._rng import SeedLike
from ..errors import (
    ConfigurationError,
    DeadlineExceeded,
    QueueFull,
    ServingError,
)
from ..observability import (
    NULL_EVENT_LOG,
    EventLog,
    MetricsRegistry,
    StatsView,
    counter,
    gauge,
    histogram,
)

__all__ = [
    "ServeRequest",
    "ServingQueue",
    "validate_deadline_seconds",
]

#: Worker-loop shutdown marker.
_SENTINEL = None


def _request_fields(request: "ServeRequest") -> Dict[str, Any]:
    """The forensic identity of a request, for event-log emissions."""
    return {
        "request_id": request.id,
        "trace": getattr(request.trace, "trace_id", None),
        "client": request.client,
        "algorithm": request.algorithm,
    }

#: Carry-slot marker: "no dequeued item is waiting to be processed".
_EMPTY = object()


def validate_deadline_seconds(
    deadline: Any, error_cls: type = ConfigurationError
) -> None:
    """The one rule for ``deadline_seconds``: a positive real number.

    Shared by parse-time (service, raising
    :class:`~repro.errors.ServingError`) and submit-time (this queue,
    raising :class:`~repro.errors.ConfigurationError`) validation so
    the two acceptance points can never drift apart.
    """
    if deadline is not None and (
        isinstance(deadline, bool)
        or not isinstance(deadline, (int, float))
        or not deadline > 0
    ):
        raise error_cls(
            f"deadline_seconds must be a positive number, got {deadline!r}"
        )


@dataclass
class ServeRequest:
    """One queued detection request.

    Attributes
    ----------
    graph:
        A :class:`~repro.graph.Graph` / :class:`~repro.graph.CompiledGraph`,
        or a fingerprint string targeting an already-warm session.
    algorithm / seed / params:
        Forwarded verbatim to :meth:`SessionManager.detect`.
    id:
        Opaque caller tag, echoed by the service layer into responses.
    deadline_seconds:
        Optional latency budget, measured from arrival (see
        ``arrived_at``; submission time when unset).  A request still
        queued when the budget runs out is shed: its future resolves
        with :class:`~repro.errors.DeadlineExceeded` and its detect
        never runs.  A request *dispatched* in time always completes —
        the deadline governs queueing, not execution.
    arrived_at:
        Optional ``time.perf_counter()`` stamp of when the request
        entered the serving system.  The network front-ends stamp the
        line's (or HTTP body's) arrival, before parsing and their
        admission stage, so the deadline clock and ``queue_wait_seconds`` cover that
        held time too — a latency budget measures what the caller
        experienced, not what the queue happened to see.
    trace:
        Optional :class:`~repro.observability.RequestTrace` riding with
        the request; the queue worker records its ``queue_wait`` span,
        downstream layers add theirs, and the service echoes the whole
        trace in the response annotation.
    client:
        Optional origin tag for the event log (the connection:
        ``client-<n>`` on the socket, ``http-<n>`` over HTTP; ``None``
        for inline/batch callers) — forensics
        only, never part of the detect semantics.
    """

    graph: Any
    algorithm: str = "oca"
    seed: SeedLike = None
    params: Dict[str, Any] = field(default_factory=dict)
    id: Optional[Any] = None
    deadline_seconds: Optional[float] = None
    arrived_at: Optional[float] = None
    trace: Optional[Any] = None
    client: Optional[str] = None


_REJECTED = counter(
    "repro_queue_rejected_total", "Submissions refused at admission", "reason"
)
_EXPIRED = counter(
    "repro_queue_expired_total",
    "Requests shed past their deadline, by the stage that shed them",
    "stage",
)

#: The queue's instruments, by ``stats`` name.  ``rejected`` counts
#: full-queue refusals, ``rejected_closed`` submissions after close;
#: ``expired_admission`` is shed before the queue by a front-end,
#: ``expired_queue`` by a worker at dispatch.
QUEUE_METRICS = {
    "submitted": counter(
        "repro_queue_submitted_total", "Requests accepted into the queue"
    ),
    "completed": counter("repro_queue_completed_total", "Requests served successfully"),
    "failed": counter("repro_queue_failed_total", "Requests whose detect raised"),
    "cancelled": counter(
        "repro_queue_cancelled_total", "Pending requests cancelled by a non-drain close"
    ),
    "rejected": _REJECTED.labels(reason="full"),
    "rejected_closed": _REJECTED.labels(reason="closed"),
    "expired_admission": _EXPIRED.labels(stage="admission"),
    "expired_queue": _EXPIRED.labels(stage="queue"),
    "depth": gauge("repro_queue_depth", "Requests currently queued (undispatched)"),
    "peak_depth": gauge("repro_queue_peak_depth", "Deepest the queue has been"),
    "wait_seconds": histogram(
        "repro_queue_wait_seconds", "Time from queue admission to worker dispatch"
    ),
    "coalesce_batch": histogram(
        "repro_queue_coalesce_batch",
        "Requests served per same-fingerprint dispatch group",
        buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
    ),
}


class ServingQueue:
    """A bounded worker-thread executor over a :class:`SessionManager`.

    Parameters
    ----------
    manager:
        Anything with a ``detect(graph, algorithm, seed=..., **params)``
        method — normally a :class:`~repro.serving.SessionManager`.
    workers:
        Dispatch threads.  More workers let more *distinct* graphs be
        served concurrently; requests for one graph always serialize on
        its session.
    max_depth:
        Queued-but-undispatched request bound; submissions beyond it
        raise :class:`~repro.errors.QueueFull`.
    coalesce:
        Maximum requests served per same-fingerprint dispatch group
        (the leader plus drained piggybackers).  1 disables coalescing;
        the default 8 bounds how long a different-fingerprint request
        can sit behind one worker's group.  Purely a scheduling knob —
        every member's cover, deadline, and trace are those of an
        uncoalesced serve.
    registry:
        The :class:`~repro.observability.MetricsRegistry` the queue
        publishes into (admission counters, the depth gauge, the wait
        histogram).  ``None`` creates a private registry; a serving
        stack wires one shared registry through all of its layers so
        ``GET /metrics`` sees everything.
    events:
        The :class:`~repro.observability.EventLog` receiving discrete
        ``deadline_shed`` and ``queue_rejected`` events.  Defaults to
        the inert :data:`~repro.observability.NULL_EVENT_LOG`; a
        serving stack wires its one shared log through here.
    """

    def __init__(
        self,
        manager: Any,
        workers: int = 2,
        max_depth: int = 64,
        coalesce: int = 8,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        if coalesce < 1:
            raise ConfigurationError(f"coalesce must be >= 1, got {coalesce}")
        self.manager = manager
        self.workers = workers
        self.max_depth = max_depth
        self.coalesce = coalesce
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else NULL_EVENT_LOG
        self._queue: "_queue.Queue" = _queue.Queue(maxsize=max_depth)
        self._lock = threading.Lock()
        # Space waiters (blocking submitters) park here; workers notify
        # after every dequeue and close() wakes everyone so nobody is
        # left waiting on a queue that will never drain for them.
        self._space = threading.Condition(self._lock)
        self._closed = False
        self._metrics = self.registry.bind(QUEUE_METRICS)
        self._metrics.depth.set_function(self._queue.qsize)
        batches = self._metrics.coalesce_batch
        self.stats = StatsView(
            self._metrics,
            expired=lambda view: view.expired_admission + view.expired_queue,
            # Requests served piggybacked on a group leader: every
            # group's size minus one, summed.
            coalesced=lambda view: int(batches.sum - batches.count),
        )
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued (excluding in-flight dispatches)."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def submit(self, request: ServeRequest) -> "Future":
        """Enqueue a request; returns its future immediately.

        :meth:`submit_blocking` with ``timeout=0``: raises
        :class:`~repro.errors.QueueFull` when the queue is at
        ``max_depth`` (the backpressure signal) and
        :class:`~repro.errors.ServingError` after :meth:`close`.
        """
        return self.submit_blocking(request, timeout=0)

    def submit_blocking(
        self, request: ServeRequest, timeout: Optional[float] = None
    ) -> "Future":
        """Like :meth:`submit`, but wait for space instead of refusing.

        The batch front-end's flow control: the caller *is* the
        backpressure sink, so a full queue means "wait for a dequeue",
        not a refusal — the wait parks on a condition variable a worker
        notifies after every dequeue, so there is no poll loop and the
        submitter wakes the moment space exists.  The wait is
        deliberately not counted in ``stats.rejected``, which stays the
        admission-refusal signal for interactive :meth:`submit` traffic.

        ``timeout`` bounds the whole wait: when the queue stays full
        that long, :class:`~repro.errors.QueueFull` is raised (and
        counted as a rejection — the request *was* refused, just
        slowly).  Raises :class:`~repro.errors.ServingError` if the
        queue is closed, or closes while waiting.
        """
        self._validate(request)
        future: "Future" = Future()
        # The enqueue timestamp is set once, at arrival: queue_wait (and
        # any deadline) then covers the blocked-for-space time too,
        # which is what a latency budget actually experienced.
        now = time.perf_counter()
        arrived = request.arrived_at if request.arrived_at is not None else now
        item = (request, future, arrived)
        give_up_at = None if timeout is None else now + timeout
        with self._space:
            while True:
                if self._closed:
                    self._metrics.rejected_closed.inc()
                    self.events.emit(
                        "queue_rejected",
                        reason="closed",
                        **_request_fields(request),
                    )
                    raise ServingError(
                        "cannot submit to a closed ServingQueue"
                    )
                try:
                    self._queue.put_nowait(item)
                except _queue.Full:
                    remaining = (
                        None
                        if give_up_at is None
                        else give_up_at - time.perf_counter()
                    )
                    if remaining is not None and remaining <= 0:
                        self._metrics.rejected.inc()
                        self.events.emit(
                            "queue_rejected",
                            reason="full",
                            **_request_fields(request),
                        )
                        raise QueueFull(
                            f"serving queue is at max_depth={self.max_depth}"
                            + (f" after {timeout}s" if timeout else "")
                            + "; retry later or raise the depth",
                            depth=self.max_depth,
                        )
                    self._space.wait(remaining)
                    continue
                self._metrics.submitted.inc()
                self._metrics.peak_depth.set_max(self._queue.qsize())
                return future

    @staticmethod
    def _validate(request: ServeRequest) -> None:
        validate_deadline_seconds(request.deadline_seconds)

    def note_admission_expired(
        self, request: Optional[ServeRequest] = None
    ) -> None:
        """Count a deadline shed that happened *before* the queue.

        The front-ends' admission core
        (:class:`~repro.serving.admission.FrontEnd`) sheds dead-on-arrival
        requests without spending a queue slot on them; reporting the shed here keeps the whole
        expired story — pre-queue and in-queue — on one instrument,
        split by the ``stage`` label, and in one event vocabulary.
        Passing the shed request attaches its identity to the event.
        """
        self._metrics.expired_admission.inc()
        fields = _request_fields(request) if request is not None else {}
        if request is not None:
            fields["deadline_seconds"] = request.deadline_seconds
        self.events.emit("deadline_shed", stage="admission", **fields)

    def detect(
        self,
        graph: Any,
        algorithm: str = "oca",
        seed: SeedLike = None,
        **params: Any,
    ) -> "Future":
        """Convenience wrapper: build the request and :meth:`submit` it."""
        return self.submit(
            ServeRequest(graph=graph, algorithm=algorithm, seed=seed, params=params)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint_of(item) -> Optional[str]:
        """The coalescing key of a queued item, or None to never group.

        Fingerprint strings key themselves; graphs hash through
        :func:`~repro.serving.fingerprint.graph_fingerprint` (content-
        cached on the compiled form, so the warm path is a dict read).
        Anything unfingerprintable simply never coalesces.
        """
        graph = item[0].graph
        if isinstance(graph, str):
            return graph
        try:
            from .fingerprint import graph_fingerprint

            return graph_fingerprint(graph)
        except Exception:
            return None

    def _worker_loop(self) -> None:
        # The carry slot holds one already-dequeued item that broke a
        # coalescing run (different fingerprint, or the sentinel); it is
        # processed first on the next iteration, before blocking on the
        # queue again.  Every get() is paired with exactly one
        # task_done() — fired when the item is actually served (or, for
        # a carried item, on the iteration that consumes it).
        carry = _EMPTY
        while True:
            if carry is not _EMPTY:
                item, carry = carry, _EMPTY
            else:
                item = self._queue.get()
                # A dequeue is a space event: wake one blocked submitter.
                with self._space:
                    self._space.notify()
            if item is _SENTINEL:
                self._queue.task_done()
                return
            group = [item]
            if self.coalesce > 1:
                key = self._fingerprint_of(item)
                while key is not None and len(group) < self.coalesce:
                    try:
                        extra = self._queue.get_nowait()
                    except _queue.Empty:
                        break
                    with self._space:
                        self._space.notify()
                    if extra is _SENTINEL or self._fingerprint_of(extra) != key:
                        carry = extra
                        break
                    group.append(extra)
            self._metrics.coalesce_batch.observe(len(group))
            for member in group:
                self._serve_one(member, len(group))

    def _serve_one(self, item, group_size: int) -> None:
        """Dispatch one dequeued request and resolve its future.

        Identical semantics whether the request leads a coalesced group,
        rides in one, or stands alone: its own queue-wait span (measured
        at *its* dispatch, so time spent behind group-mates counts), its
        own deadline check, its own future resolution.
        """
        request, future, enqueued_at = item
        try:
            if not future.set_running_or_notify_cancel():
                self._metrics.cancelled.inc()
                return
            wait_seconds = time.perf_counter() - enqueued_at
            self._metrics.wait_seconds.observe(wait_seconds)
            if request.trace is not None:
                request.trace.record("queue_wait", wait_seconds)
                if group_size > 1:
                    request.trace.mark("coalesce_batch", group_size)
            deadline = request.deadline_seconds
            if deadline is not None and wait_seconds > deadline:
                # Shed, don't serve: nobody is waiting for this
                # result any more, so the detect must not run.
                # Counted before resolving, like completed/failed.
                self._metrics.expired_queue.inc()
                self.events.emit(
                    "deadline_shed",
                    stage="queue",
                    deadline_seconds=deadline,
                    waited_seconds=round(wait_seconds, 6),
                    **_request_fields(request),
                )
                future.set_exception(
                    DeadlineExceeded(
                        f"deadline of {deadline}s exceeded after "
                        f"{wait_seconds:.3f}s in the queue",
                        deadline_seconds=deadline,
                        waited_seconds=wait_seconds,
                    )
                )
                return
            try:
                result = self.manager.detect(
                    request.graph,
                    request.algorithm,
                    seed=request.seed,
                    **request.params,
                )
            except Exception as error:
                # Count before resolving: once a waiter can see the
                # outcome, a concurrent /metrics scrape must too.
                self._metrics.failed.inc()
                future.set_exception(error)
            else:
                result.stats["queue_wait_seconds"] = wait_seconds
                if group_size > 1:
                    result.stats["coalesce_batch"] = group_size
                self._metrics.completed.inc()
                future.set_result(result)
        finally:
            self._queue.task_done()

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Block until every accepted request has been dispatched and
        its future resolved (the queue's ``join`` barrier)."""
        self._queue.join()

    def close(self, drain: bool = True) -> None:
        """Stop the queue; idempotent.

        ``drain=True`` (graceful): no new submissions are accepted,
        every already-accepted request completes and resolves its
        future, then the workers exit.  ``drain=False``: pending
        (undispatched) requests are cancelled — their futures report
        :meth:`~concurrent.futures.Future.cancelled` — while in-flight
        dispatches still finish.
        """
        with self._space:
            if self._closed:
                return
            self._closed = True
            # Wake every blocked submitter: they re-check the flag and
            # raise instead of waiting on a queue that is shutting down.
            self._space.notify_all()
        if drain:
            self._queue.join()
        else:
            while True:
                try:
                    item = self._queue.get_nowait()
                except _queue.Empty:
                    break
                _, future, _ = item
                if future.cancel():
                    self._metrics.cancelled.inc()
                self._queue.task_done()
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "ServingQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ServingQueue(workers={self.workers}, depth={self.depth}/"
            f"{self.max_depth}, submitted={self.stats.submitted}, {state})"
        )
