"""GraphSession: the serving layer for repeat detection traffic.

The ROADMAP's north star is serving heavy repeat traffic over shared
graphs.  The expensive per-graph artifacts — the compiled CSR form, the
spectral ``c`` (with the paper's power method it dominated cold runs:
~3.3 s vs ~0.23 s engine loop at n = 6000, see BENCH_csr.json), and a
warm worker pool —
must therefore live in a reusable object rather than being rebuilt
inside every top-level call.  That object is :class:`GraphSession`::

    with GraphSession(graph, workers=4) as session:
        for seed in range(100):
            result = session.detect("oca", seed=seed, batch_size=32)

The first call pays graph compilation, the spectral solve, and pool
startup; calls 2..N reuse all three (asserted by
``tests/detectors/test_session.py::TestWarmPath``).  Covers are byte-identical
to one-shot registry calls for the same seeds — the session changes
wall-clock time, never results.

A detector that declares ``seed_independent`` (``cpm``, ``cfinder``,
``modularity_greedy``) computes a pure function of the graph and its
params, so the session keeps its last few covers in a small memo keyed
by ``(algorithm, params)``: a repeat request, whatever its seed, is
answered from the memo and runs no kernel (``stats["cover_memo"]`` is
``"hit"``).  The memo lives as long as the compiled form — through
``close()``/``reopen()`` — and goes with the session.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import OrderedDict
from typing import Any, Optional, Tuple

from .._rng import SeedLike
from ..detection import DetectionRequest, DetectionResult
from ..engine.engine import ExecutionEngine
from ..errors import AlgorithmError, SessionClosedError
from ..graph import Graph
from ..graph.csr import CompiledGraph, compile_graph
from ..observability import MetricsRegistry, StatsView, counter, histogram
from .registry import get_detector

__all__ = ["GraphSession"]


_TASKS = counter(
    "repro_engine_tasks_total",
    "Engine growth tasks, by what the reducer did with them",
    "outcome",
)

#: Covers a session keeps for seed-independent detectors; the least
#: recently used is dropped first.  Only ``cpm``'s ``k`` varies the key
#: on one graph, so a few entries cover every realistic request mix.
COVER_MEMO_SIZE = 4

#: The instruments every session on one registry shares: detect latency
#: per algorithm, spectral solve sources, pool lifecycle, compile time,
#: the cover memo, and the engine's dispatch/reduce split.
SESSION_METRICS = {
    "detect_seconds": histogram(
        "repro_session_detect_seconds", "Detect wall-clock per algorithm", "algorithm"
    ),
    "compile_seconds": counter(
        "repro_session_compile_seconds_total",
        "Wall-clock spent compiling graphs at session bind",
    ),
    "binds": counter("repro_session_binds_total", "Sessions bound (graphs compiled)"),
    "spectral": counter(
        "repro_session_spectral_total",
        "How detects resolved the admissible c, by source",
        "source",
    ),
    "pool_reuses": counter(
        "repro_session_pool_reuses_total",
        "Detects served on an already-warm persistent worker pool",
    ),
    "pools_closed": counter(
        "repro_session_pools_closed_total", "Persistent worker pools actually torn down"
    ),
    "cover_memo": counter(
        "repro_session_cover_memo_total",
        "Seed-independent detects answered from the session's cover memo "
        "(hit) or computed and stored in it (miss)",
        "outcome",
    ),
    "engine_batches": counter(
        "repro_engine_batches_total", "Engine batches dispatched"
    ),
    "tasks_folded": _TASKS.labels(outcome="folded"),
    "tasks_discarded": _TASKS.labels(outcome="discarded"),
    "engine_dispatch_seconds": counter(
        "repro_engine_dispatch_seconds_total",
        "Wall-clock spent waiting on engine workers",
    ),
    "engine_reduce_seconds": counter(
        "repro_engine_reduce_seconds_total", "Wall-clock spent folding engine results"
    ),
    "engine_shipping": counter(
        "repro_engine_shipping_total",
        "Detects by how the worker context crossed the process "
        "boundary (inline / fork / mmap / pickle)",
        "mode",
    ),
    "engine_worker_calls": counter(
        "repro_engine_worker_calls_total",
        "Executor dispatches made (chunked worker calls, not tasks)",
    ),
    "engine_chunk_tasks": histogram(
        "repro_engine_chunk_tasks",
        "Growth tasks per grouped worker call",
        buckets=(1, 2, 4, 8, 16, 32, 64, 128),
    ),
}


def _memo_key(detector, params: dict) -> Optional[Tuple]:
    """The cover-memo key of a request, or ``None`` to bypass the memo.

    Only seed-independent detectors memoise.  A value's type is part of
    the key, so ``k=3`` and ``k=3.0`` never share a cover; params that
    cannot be hashed give no key, and the detector sees them as usual.
    """
    if not detector.seed_independent:
        return None
    key = (
        detector.name,
        tuple(sorted((name, type(value), value) for name, value in params.items())),
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


class GraphSession:
    """One graph, bound once, served many times.

    Parameters
    ----------
    graph:
        The graph to serve — a :class:`~repro.graph.Graph` (compiled
        here, once) or an already-compiled
        :class:`~repro.graph.CompiledGraph`.
    workers:
        Size of the session's worker pool (1 runs inline and opens no
        pool, 0 means one per CPU).  Every :meth:`detect` call shares
        the pool, whatever its algorithm parameters — ``batch_size``
        included, which is a per-call OCA parameter.  Any graph export
        the engine writes for a process pool is owned by the session's
        pool and removed by :meth:`close` (after the workers are
        joined) — eviction from a :class:`~repro.serving.SessionManager`
        goes through the same path, so no export directory outlives its
        session.

    The session is a context manager; :meth:`close` releases the
    persistent worker pool.  Detection through a closed session — and a
    second explicit ``close()`` — raises
    :class:`~repro.errors.SessionClosedError`; :meth:`reopen` brings a
    closed session back (the compiled graph, its spectral cache and the
    cover memo survive the close, so a reopened session is still warm
    except for the pool).

    Notes
    -----
    The bound graph must not be mutated while the session is open: the
    compiled form, the cached spectrum, and the shipped worker contexts
    all describe the graph as it was at binding time.  (Mutation drops
    the graph's own compiled cache, so subsequent sessions see the new
    structure — but an open session would keep serving the old one.)
    """

    def __init__(
        self,
        graph,
        workers: int = 1,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(graph, (Graph, CompiledGraph)):
            raise AlgorithmError(
                "GraphSession binds a Graph or CompiledGraph, "
                f"got {type(graph).__name__}"
            )
        self._graph = graph
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = self.registry.bind(SESSION_METRICS)
        # Compile exactly once, up front: every detect, every spectral
        # resolution, and every worker payload reuses this object.  (The
        # measured time is near-zero when the graph arrives with a warm
        # compile cache — that, too, is worth seeing on a dashboard.)
        compile_started = time.perf_counter()
        self._compiled = compile_graph(graph)
        self._metrics.compile_seconds.inc(
            time.perf_counter() - compile_started
        )
        self._metrics.binds.inc()
        self.workers = workers
        self._memory_bytes = memory_bytes = self._measure_memory()
        nodes = self._compiled.number_of_nodes()
        edges = self._compiled.number_of_edges()
        detect_seconds = self._metrics.detect_seconds
        #: Serving statistics over the session family: detects (per
        #: algorithm), spectral solves vs cache hits, pool reuses and
        #: teardowns, summed detect seconds; plus the session's own size.
        #: A standalone session counts on its private registry; sessions
        #: bound by one SessionManager share the stack's, and read its
        #: totals.
        self.stats = StatsView(
            self._metrics,
            by_algorithm=lambda view: {
                values[0]: child.count for values, child in detect_seconds.children()
            },
            detect_calls=lambda view: sum(view.by_algorithm.values()),
            power_method_runs=lambda view: sum(
                view.spectral.get(source, 0)
                for source in ("power_method", "lanczos")
            ),
            spectral_cache_hits=lambda view: view.spectral.get("cache", 0),
            detect_seconds=lambda view: sum(
                child.sum for _, child in detect_seconds.children()
            ),
            nodes=lambda view: nodes,
            edges=lambda view: edges,
            memory_bytes=lambda view: memory_bytes,
        )
        self._closed = False
        self._engine = self._build_engine()
        self._covers: "OrderedDict[Tuple, DetectionResult]" = OrderedDict()

    def _build_engine(self) -> ExecutionEngine:
        engine = ExecutionEngine(workers=self.workers)
        engine.add_close_hook(self._on_pool_closed)
        return engine

    def _on_pool_closed(self) -> None:
        self._metrics.pools_closed.inc()

    def _measure_memory(self) -> int:
        """Footprint of the per-graph artifacts this session pins.

        The CSR arrays dominate; for non-identity labels the label table
        (list slots + the label objects themselves) is charged too, so a
        string-labelled graph costs visibly more than its integer twin.
        """
        total = self._compiled.nbytes()
        if not self._compiled.identity_labels:
            labels = self._compiled.labels
            total += sys.getsizeof(labels)
            total += sum(sys.getsizeof(label) for label in labels)
        return total

    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The bound graph, exactly as passed in."""
        return self._graph

    @property
    def compiled(self) -> CompiledGraph:
        """The session's shared compiled form."""
        return self._compiled

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def fingerprint(self) -> str:
        """The content fingerprint of the bound graph.

        The key the :class:`~repro.serving.SessionManager` files this
        session under; see :func:`repro.serving.graph_fingerprint`.
        Cached on the compiled form, so repeated reads are free.
        """
        # Imported lazily: repro.serving imports this module.
        from ..serving.fingerprint import graph_fingerprint

        return graph_fingerprint(self._compiled)

    def memory_bytes(self) -> int:
        """Resident footprint of the session's per-graph artifacts."""
        return self._memory_bytes

    # ------------------------------------------------------------------
    def detect(
        self,
        algorithm: str = "oca",
        seed: SeedLike = None,
        **params: Any,
    ) -> DetectionResult:
        """Run ``algorithm`` on the bound graph.

        ``params`` are forwarded to the detector (see
        :mod:`repro.detectors.builtin` for each algorithm's surface).
        Returns the detector's :class:`~repro.detection.DetectionResult`
        and folds its accounting into :attr:`stats`.

        A seed-independent detector's cover comes from the session's
        memo when the same ``(algorithm, params)`` already ran here: the
        result is a fresh object with its own ``stats``, this call's
        ``params`` echo, ``stats["cover_memo"] == "hit"``, and the
        lookup as its ``elapsed_seconds``.  A computed one reports
        ``"miss"``.  Errors are never memoised, and params that cannot
        be hashed bypass the memo.
        """
        start = time.perf_counter()
        if self._closed:
            raise SessionClosedError(
                "cannot detect through a closed GraphSession "
                "(call reopen() to bring it back)"
            )
        detector = get_detector(algorithm)
        key = _memo_key(detector, params)
        stored = None if key is None else self._covers.get(key)
        if stored is not None:
            self._covers.move_to_end(key)
            result = dataclasses.replace(
                stored,
                params=dict(params),
                stats={**stored.stats, "cover_memo": "hit"},
                elapsed_seconds=time.perf_counter() - start,
            )
        else:
            request = DetectionRequest(
                graph=self._graph, seed=seed, params=params, engine=self._engine
            )
            result = detector.detect(request)
            if key is not None:
                # A snapshot: the serving layers write per-request keys
                # into the returned result's stats.
                self._covers[key] = dataclasses.replace(
                    result, stats=dict(result.stats)
                )
                if len(self._covers) > COVER_MEMO_SIZE:
                    self._covers.popitem(last=False)
                result.stats["cover_memo"] = "miss"
        self._record(result)
        return result

    def _record(self, result: DetectionResult) -> None:
        """Publish one detect result's events into the registry."""
        metrics = self._metrics
        metrics.detect_seconds.labels(result.algorithm).observe(
            result.elapsed_seconds
        )
        c_source = result.stats.get("c_source")
        if c_source:
            metrics.spectral.labels(str(c_source)).inc()
        memo = result.stats.get("cover_memo")
        if memo:
            metrics.cover_memo.labels(memo).inc()
        if result.stats.get("engine_pool") == "reused":
            metrics.pool_reuses.inc()
        engine_stats = getattr(result, "engine_stats", None)
        if engine_stats is not None:
            metrics.engine_batches.inc(engine_stats.batches)
            metrics.tasks_folded.inc(engine_stats.tasks_folded)
            metrics.tasks_discarded.inc(engine_stats.tasks_discarded)
            metrics.engine_dispatch_seconds.inc(engine_stats.dispatch_seconds)
            metrics.engine_reduce_seconds.inc(engine_stats.reduce_seconds)
            metrics.engine_shipping.labels(engine_stats.shipping).inc()
            if engine_stats.worker_calls:
                metrics.engine_worker_calls.inc(engine_stats.worker_calls)
                metrics.engine_chunk_tasks.observe(
                    engine_stats.tasks_dispatched
                    / max(1, engine_stats.worker_calls)
                )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the persistent worker pool (and any graph export).

        The engine joins its workers before removing the export
        directory, so a worker mid-map can never find its files
        gone.  A second explicit ``close()`` raises
        :class:`~repro.errors.SessionClosedError` — a clear lifecycle
        error at the call site rather than an obscure failure inside the
        pool teardown path.  (Context-manager exit stays tolerant: a
        session closed inside its ``with`` block exits cleanly.)  The
        closed flag is set *before* the pool teardown so the session is
        unusable even if teardown itself fails.
        """
        if self._closed:
            raise SessionClosedError(
                "GraphSession.close() called on an already-closed session"
            )
        self._closed = True
        self._engine.close()

    def reopen(self) -> "GraphSession":
        """Bring a closed session back into service; returns ``self``.

        The expensive per-graph artifacts — the compiled CSR form and
        the spectral cache living on it — survived the close, so a
        reopened session only pays worker-pool startup again.  This is
        what lets the serving layer's LRU park and revive sessions
        cheaply.  No-op on an open session.
        """
        if self._closed:
            self._engine = self._build_engine()
            self._closed = False
        return self

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"GraphSession(n={self.stats.nodes}, m={self.stats.edges}, "
            f"calls={self.stats.detect_calls}, {state})"
        )
