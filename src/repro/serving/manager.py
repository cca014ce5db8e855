"""SessionManager: a bounded LRU of warm GraphSessions, one per graph.

:class:`~repro.detectors.GraphSession` made repeat traffic over *one*
graph cheap (compiled CSR, cached spectral ``c``, persistent worker
pool, all paid once).  The serving north star is repeat traffic over
*many* graphs, from many clients, in one process — which needs an owner
for the set of live sessions: something that recognises a graph it has
seen before (by content, via :func:`~repro.serving.graph_fingerprint`),
bounds how many sessions stay resident, and evicts deterministically
when the bound is hit.  That owner is :class:`SessionManager`::

    manager = SessionManager(max_sessions=4)
    for request_graph, seed in traffic:
        result = manager.detect(request_graph, "oca", seed=seed)

Covers are byte-identical to a direct ``GraphSession.detect`` on the
same graph — the manager only decides *which* warm session serves a
request, never how the detection runs.  Eviction is strict LRU over
fingerprints (least-recently *served*, not least-recently bound), so
cache contents after any request sequence are a pure function of that
sequence.  ``detect`` is thread-safe: binding and LRU bookkeeping are
serialized on the manager lock, per-session work on a per-entry lock,
so requests for different graphs run concurrently on their own worker
pools while requests for the same graph queue up behind its session.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..store import GraphStore

from .._rng import SeedLike
from ..detection import DetectionResult
from ..detectors.registry import resolve_detector
from ..detectors.session import SESSION_METRICS, GraphSession
from ..errors import ConfigurationError, ServingError
from ..observability import (
    NULL_EVENT_LOG,
    EventLog,
    MetricsRegistry,
    StatsView,
    counter,
    gauge,
    histogram,
)
from .fingerprint import graph_fingerprint

__all__ = ["SessionManager"]

#: What ``detect`` accepts as its graph argument: a graph (bound on
#: miss) or a bare fingerprint string (must already be warm).
GraphOrFingerprint = Union[Any, str]


_REQUESTS = counter(
    "repro_manager_requests_total", "Session-cache outcomes per request", "outcome"
)

#: The manager's instruments, by ``stats`` name.  A hit reused a warm
#: session, a miss bound a fresh one; ``reopened`` revived an
#: out-of-band-closed session in place.
MANAGER_METRICS = {
    "hits": _REQUESTS.labels(outcome="hit"),
    "misses": _REQUESTS.labels(outcome="miss"),
    "evictions": counter(
        "repro_manager_evictions_total",
        "Sessions closed to honour max_sessions / the memory budget",
    ),
    "reopened": counter(
        "repro_manager_reopened_total",
        "Out-of-band-closed sessions revived via reopen()",
    ),
    "prewarmed": counter(
        "repro_manager_prewarmed_total",
        "Sessions bound from the store by warm() before any request",
    ),
    "sessions_resident": gauge(
        "repro_manager_sessions_resident", "Warm sessions currently resident in the LRU"
    ),
    "memory_bytes": gauge(
        "repro_manager_memory_bytes",
        "Summed footprint of resident sessions' per-graph artifacts",
    ),
    "acquire_seconds": histogram(
        "repro_manager_acquire_seconds",
        "Time to bind-or-fetch the serving session for a request",
    ),
}


class _Entry:
    """One LRU slot: a session plus the lock serializing work on it.

    ``source`` records how the session came to be resident (``store``:
    loaded from the persistence layer; ``compiled``: built from the
    request's graph); the first request an entry serves reports that
    source as its ``session_source`` and every later one reports
    ``warm`` (``served`` flips after the first).  ``pending_save``
    marks freshly compiled entries whose artifacts still owe the store
    a write — consumed by the first successful detect.
    """

    __slots__ = ("fingerprint", "session", "lock", "source", "served", "pending_save")

    def __init__(
        self, fingerprint: str, session: GraphSession, source: str = "compiled"
    ) -> None:
        self.fingerprint = fingerprint
        self.session = session
        self.lock = threading.Lock()
        self.source = source
        self.served = False
        self.pending_save = False


class SessionManager:
    """Serve detection requests over many graphs from bounded warm state.

    Parameters
    ----------
    max_sessions:
        Hard cap on resident sessions; binding one more evicts the
        least-recently-used (its worker pool is shut down and its
        compiled arrays become collectable).
    max_memory_bytes:
        Optional additional budget on the summed
        :meth:`GraphSession.memory_bytes` of resident sessions.  While
        over budget, LRU sessions are evicted — but never the last one,
        which is needed to serve the request that is binding it.
    workers:
        The pool size of every :class:`~repro.detectors.GraphSession`
        the manager binds.  A request's ``batch_size`` travels in its
        params.
    registry:
        The :class:`~repro.observability.MetricsRegistry` the manager
        (and every session it binds) publishes into; ``None`` creates a
        private one.
    store:
        An optional :class:`~repro.store.GraphStore`.  On a session
        miss the manager consults it *before* compiling — a stored
        entry binds a session over mmap'd arrays with the spectral
        cache pre-populated — and after a freshly compiled entry's
        first successful detect the compiled artifacts are saved back,
        so the next process (or the next eviction-victim rebind)
        starts warm.  Results carry ``stats["session_source"]``:
        ``"warm"`` (resident session reused), ``"store"`` (this
        request was served from persisted artifacts), or
        ``"compiled"`` (full cold start).
    events:
        The :class:`~repro.observability.EventLog` receiving
        ``session_evicted`` events (reason ``capacity`` for LRU /
        memory-budget sheds, ``explicit`` for :meth:`evict`); defaults
        to the inert :data:`~repro.observability.NULL_EVENT_LOG`.

    The manager is a context manager; :meth:`close` evicts everything
    (the store, if any, persists — it is the part that outlives the
    manager).
    """

    def __init__(
        self,
        max_sessions: int = 8,
        max_memory_bytes: Optional[int] = None,
        workers: int = 1,
        registry: Optional[MetricsRegistry] = None,
        store: "Optional[GraphStore]" = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        if max_memory_bytes is not None and max_memory_bytes <= 0:
            raise ConfigurationError(
                f"max_memory_bytes must be positive, got {max_memory_bytes}"
            )
        self.max_sessions = max_sessions
        self.max_memory_bytes = max_memory_bytes
        self.store = store
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else NULL_EVENT_LOG
        self._session_kwargs: Dict[str, Any] = {
            "workers": workers,
            "registry": self.registry,
        }
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self._closed = False
        self._metrics = self.registry.bind(MANAGER_METRICS)
        self._metrics.sessions_resident.set_function(
            lambda: len(self._entries)
        )
        self._metrics.memory_bytes.set_function(self.memory_bytes)
        # The manager's sessions observe every detect they serve on this
        # registry; the manager reads those counts rather than keep its own.
        detects = self.registry.bind(
            {"seconds": SESSION_METRICS["detect_seconds"]}
        ).seconds
        self.stats = StatsView(
            self._metrics,
            hit_rate=lambda view: view.hits / max(1, view.hits + view.misses),
            detect_calls=lambda view: sum(
                child.count for _, child in detects.children()
            ),
            detect_seconds=lambda view: sum(
                child.sum for _, child in detects.children()
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def fingerprints(self) -> List[str]:
        """Resident fingerprints in eviction order (LRU first)."""
        with self._lock:
            return list(self._entries)

    def memory_bytes(self) -> int:
        """Summed footprint of all resident sessions."""
        with self._lock:
            return sum(
                entry.session.memory_bytes() for entry in self._entries.values()
            )

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @staticmethod
    def fingerprint(graph: Any) -> str:
        """The cache key a graph would be served under."""
        return graph_fingerprint(graph)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def detect(
        self,
        graph: GraphOrFingerprint,
        algorithm: str = "oca",
        seed: SeedLike = None,
        **params: Any,
    ) -> DetectionResult:
        """Serve one detection request, reusing a warm session on a hit.

        ``graph`` may be a :class:`~repro.graph.Graph`, a
        :class:`~repro.graph.CompiledGraph`, or a bare fingerprint
        string — the latter reaches sessions that are already warm or,
        when the manager has a store, binds one from persisted
        artifacts; with neither available it raises
        :class:`~repro.errors.ServingError`.

        The result is exactly what ``GraphSession.detect`` returns for
        the same arguments, with serving annotations added to its
        ``stats``: ``session_fingerprint``, ``session_hit``,
        ``session_source`` (``warm`` / ``store`` / ``compiled``), and
        ``session_acquire_seconds`` (how long the bind-or-fetch took,
        including any wait behind a concurrent detect on the same
        session — the request trace's ``session_acquire`` span).

        An unknown algorithm or parameter, or a bad parameter value, is
        refused first (:func:`~repro.detectors.registry.resolve_detector`):
        such a request fingerprints nothing, counts no hit or miss, and
        binds or evicts no session.
        """
        resolve_detector(algorithm, params)
        acquire_started = time.perf_counter()
        if not isinstance(graph, str):
            # Warm the content hash (and with it the compiled form, which
            # the hash is computed on) *outside* the manager lock: both
            # are cached on the graph, so the costly O(n + m) work runs
            # unserialised and _resolve's critical section stays at dict
            # lookups plus, on a miss, a cache-hit session bind.
            graph_fingerprint(graph)
        # Like the fingerprint, the store round-trip (mmap + checksum)
        # runs outside the manager lock; it returns None whenever the
        # key is already resident, so the common warm path pays nothing.
        stored = self._store_lookup(
            graph if isinstance(graph, str) else graph_fingerprint(graph)
        )
        while True:
            evicted: List[_Entry] = []
            with self._lock:
                if self._closed:
                    raise ServingError("SessionManager is closed")
                entry, hit = self._resolve(graph, evicted, stored)
            # Evicted pools are shut down outside the manager lock, and
            # only *after* this request has been served: an in-flight
            # detect on a victim holds the victim's entry lock for its
            # full duration, and waiting on it here would stall the very
            # request whose bind triggered the eviction.
            try:
                lost_race = False
                with entry.lock:
                    if entry.session.closed:
                        # Lost a race with eviction between resolve and
                        # lock acquisition: the entry is already out of
                        # the LRU map.  Rebind from the graph if we have
                        # one; a bare fingerprint has nothing to rebind.
                        lost_race = True
                    else:
                        acquire_seconds = (
                            time.perf_counter() - acquire_started
                        )
                        result = entry.session.detect(
                            algorithm, seed=seed, **params
                        )
                        source = "warm" if entry.served else entry.source
                        entry.served = True
                        save_needed = entry.pending_save
                        entry.pending_save = False
            finally:
                self._close_entries(evicted, reason="capacity")
            if lost_race:
                # Undo the losing iteration's cache-outcome count —
                # whether we retry or fail, this request must not stay
                # booked as a serve.  (The registry counters are
                # internally locked, so the retraction needs no manager
                # lock; a scrape between the count and the retraction
                # sees the provisional outcome, which is the same
                # transient the old dataclass had.)
                if hit:
                    self._metrics.hits.inc(-1)
                else:
                    self._metrics.misses.inc(-1)
                if isinstance(graph, str):
                    # A bare fingerprint can still be rebound from the
                    # store; without one there is nothing to rebind.
                    stored = self._store_lookup(graph)
                    if stored is None:
                        raise ServingError(
                            f"session {graph!r} was evicted while the "
                            "request was in flight; re-send the graph"
                        )
                continue
            self._metrics.acquire_seconds.observe(acquire_seconds)
            result.stats["session_fingerprint"] = entry.fingerprint
            result.stats["session_hit"] = hit
            result.stats["session_source"] = source
            result.stats["session_acquire_seconds"] = acquire_seconds
            if save_needed:
                self._store_save(entry)
            return result

    def session(self, graph: GraphOrFingerprint) -> GraphSession:
        """Bind-or-fetch the warm session for a graph (LRU-refreshing).

        Prefer :meth:`detect` for serving: direct calls on the returned
        session are not serialized against concurrent manager traffic,
        and the session may be evicted (closed) under the caller at any
        later request.  This accessor exists for introspection and
        single-threaded pipelines that want the full session surface.
        """
        if not isinstance(graph, str):
            graph_fingerprint(graph)  # hash + compile outside the lock
        stored = self._store_lookup(
            graph if isinstance(graph, str) else graph_fingerprint(graph)
        )
        evicted: List[_Entry] = []
        with self._lock:
            if self._closed:
                raise ServingError("SessionManager is closed")
            entry, _ = self._resolve(graph, evicted, stored)
        self._close_entries(evicted, reason="capacity")
        return entry.session

    def warm(self, fingerprint: str) -> bool:
        """Bind a session from the store before any request arrives.

        Returns ``True`` if the fingerprint is resident afterwards
        (freshly bound, or already warm — either way its LRU slot is
        refreshed) and ``False`` if the store has no loadable entry for
        it.  Requires a manager constructed with ``store=``; this is
        what :class:`~repro.store.StoreWarmer` calls per fingerprint.
        """
        if self.store is None:
            raise ServingError(
                "warm() needs a SessionManager constructed with a store "
                "(SessionManager(store=...))"
            )
        with self._lock:
            if self._closed:
                raise ServingError("SessionManager is closed")
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
                return True
        stored = self.store.load(fingerprint)
        if stored is None:
            return False
        evicted: List[_Entry] = []
        with self._lock:
            if self._closed:
                raise ServingError("SessionManager is closed")
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
            else:
                self._bind(fingerprint, stored, source="store")
                self._metrics.prewarmed.inc()
                self._shed(evicted)
        self._close_entries(evicted, reason="capacity")
        return True

    # ------------------------------------------------------------------
    # Store round-trips (manager lock NOT held — both ends are slow I/O)
    # ------------------------------------------------------------------
    def _store_lookup(self, key: str) -> Optional[Any]:
        """Load a stored graph for a key unless it is already resident."""
        if self.store is None:
            return None
        with self._lock:
            if self._closed or key in self._entries:
                return None
        return self.store.load(key)

    def _store_save(self, entry: _Entry) -> None:
        """Persist a freshly served entry's artifacts; never raises.

        The store is a cache — a failed save (disk full, permissions,
        unpersistable labels) must not fail the request that triggered
        it, so everything is absorbed into a single warning.
        """
        if self.store is None:
            return
        try:
            self.store.save(
                entry.session.compiled, fingerprint=entry.fingerprint
            )
        except Exception as error:  # pragma: no cover - defensive
            warnings.warn(
                f"graph store save failed for {entry.fingerprint!r}: "
                f"{error}",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # Internals (manager lock held)
    # ------------------------------------------------------------------
    def _resolve(
        self,
        graph: GraphOrFingerprint,
        evicted: List[_Entry],
        stored: Optional[Any] = None,
    ) -> Tuple[_Entry, bool]:
        if isinstance(graph, str):
            entry = self._entries.get(graph)
            if entry is None:
                if stored is None:
                    extra = (
                        " (and the store has no loadable entry)"
                        if self.store is not None
                        else ""
                    )
                    raise ServingError(
                        f"no warm session for fingerprint {graph!r}{extra}; "
                        "pass the graph itself to bind one"
                    )
                entry = self._bind(graph, stored, source="store")
                self._metrics.misses.inc()
                self._shed(evicted)
                return entry, False
            self._revive(entry)
            self._entries.move_to_end(graph)
            self._metrics.hits.inc()
            return entry, True
        key = graph_fingerprint(graph)
        entry = self._entries.get(key)
        if entry is not None:
            self._revive(entry)
            self._entries.move_to_end(key)
            self._metrics.hits.inc()
            return entry, True
        if stored is not None:
            entry = self._bind(key, stored, source="store")
        else:
            entry = self._bind(key, graph, source="compiled")
        self._metrics.misses.inc()
        self._shed(evicted)
        return entry, False

    def _bind(self, key: str, graph: Any, source: str) -> _Entry:
        """Create and file a fresh entry (manager lock held).

        A freshly *compiled* entry owes the store a save — paid after
        its first successful detect, when the spectral cache is
        populated too; a store-loaded entry already lives there.
        """
        session = GraphSession(graph, **self._session_kwargs)
        entry = _Entry(key, session, source=source)
        entry.pending_save = source == "compiled" and self.store is not None
        self._entries[key] = entry
        return entry

    def _revive(self, entry: _Entry) -> None:
        """Reopen a resident session that was closed out-of-band.

        An entry still in the LRU map cannot be mid-eviction (eviction
        pops under the manager lock, which we hold), so a closed session
        here means someone closed it directly; ``reopen`` revives it on
        its retained compiled graph and spectral cache.
        """
        if entry.session.closed:
            with entry.lock:
                if entry.session.closed:
                    entry.session.reopen()
                    self._metrics.reopened.inc()

    def _shed(self, evicted: List[_Entry]) -> None:
        """Pop LRU entries until both bounds hold (deterministic order)."""
        while len(self._entries) > self.max_sessions:
            _, entry = self._entries.popitem(last=False)
            evicted.append(entry)
            self._metrics.evictions.inc()
        if self.max_memory_bytes is None:
            return
        while len(self._entries) > 1:
            resident = sum(
                entry.session.memory_bytes() for entry in self._entries.values()
            )
            if resident <= self.max_memory_bytes:
                break
            _, entry = self._entries.popitem(last=False)
            evicted.append(entry)
            self._metrics.evictions.inc()

    def _close_entries(
        self, entries: List[_Entry], reason: Optional[str] = None
    ) -> None:
        """Shut down evicted entries (manager lock NOT held).

        ``reason`` (``capacity`` / ``explicit``) emits one
        ``session_evicted`` event per entry; ``None`` (manager close)
        stays silent — ``server_stop`` already records the teardown.
        """
        for entry in entries:
            with entry.lock:
                if not entry.session.closed:
                    entry.session.close()
            if reason is not None:
                self.events.emit(
                    "session_evicted",
                    fingerprint=entry.fingerprint,
                    reason=reason,
                    served=entry.served,
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def evict(self, fingerprint: str) -> bool:
        """Evict one session by fingerprint; returns whether it was resident."""
        with self._lock:
            entry = self._entries.pop(fingerprint, None)
            if entry is not None:
                self._metrics.evictions.inc()
        if entry is None:
            return False
        self._close_entries([entry], reason="explicit")
        return True

    def close(self) -> None:
        """Evict every session and refuse further requests; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        self._close_entries(entries)

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        with self._lock:
            resident = len(self._entries)
        return (
            f"SessionManager(sessions={resident}/{self.max_sessions}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"evictions={self.stats.evictions}, {state})"
        )
