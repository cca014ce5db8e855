"""The execution engine: batched, parallel, deterministic local search.

Orchestrates the three engine roles around a worker pool:

1. the :class:`~repro.engine.scheduler.BatchScheduler` picks the next
   batch of seed nodes centrally (sequential, cheap);
2. the :class:`~repro.engine.backends.ExecutionBackend` runs the batch's
   growth tasks concurrently (parallel, expensive);
3. the :class:`~repro.engine.reducer.CoverReducer` folds results in task
   order, re-evaluating the halting criterion before each one
   (sequential, cheap).

The engine works in the dense-id space of a
:class:`~repro.graph.csr.CompiledGraph` from end to end: the scheduler
draws ids, workers grow id sets, and the reducer folds them; the
detector layer translates the final cover back to labels.

Determinism contract: the outcome is a pure function of ``(graph,
config, seed, batch_size)`` — the worker count and backend choice only
change wall-clock time, never the cover.  With ``batch_size=1`` the
engine reproduces the paper's sequential algorithm draw-for-draw;
larger batches trade bounded covered-set staleness for throughput.
Batches are speculative; the reducer discards whatever a sequential run
would not have executed.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set

from .._rng import SeedLike, as_master_seed, as_random
from ..core.fitness import FitnessFunction
from ..core.halting import HaltingCriterion, RunStatistics
from ..core.seeding import SeedingStrategy
from ..errors import ConfigurationError
from ..graph.csr import CompiledGraph
from ..graph.shm import SharedGraphSegments, export_shared, shm_available
from .backends import make_backend, resolve_backend_name
from .progress import BatchRecord, EngineStats, ProgressCallback
from .reducer import CoverReducer
from .scheduler import BatchScheduler
from .tasks import (
    WorkerContext,
    execute_batch_in_worker,
    execute_growth_task,
    execute_in_worker,
    initialize_worker,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SHIPPING_MODES",
    "EngineOutcome",
    "ExecutionEngine",
]

#: Accepted values for the ``shipping`` knob.  ``auto`` resolves to
#: ``shm`` only where it pays: a process backend, a usable
#: ``/dev/shm``, and a start method that actually pickles the worker
#: context (under ``fork`` the initargs are inherited copy-on-write, so
#: shared-memory export would be pure overhead).
SHIPPING_MODES = ("auto", "shm", "pickle")

#: Default tasks per batch.  1 on purpose, for two reasons: results
#: depend on the batch size (seeding within a batch sees the covered set
#: as of the batch start), so the default must be a fixed constant —
#: deriving it from the worker count would make covers depend on the
#: hardware — and at 1 the engine is *exactly* the paper's sequential
#: algorithm.  Parallel callers opt into speculation by raising it
#: (a few times the worker count works well).
DEFAULT_BATCH_SIZE = 1


@dataclass
class EngineOutcome:
    """Everything one engine execution produced, pre-postprocessing."""

    found: Dict[frozenset, float]
    covered: Set[int]
    run_stats: RunStatistics
    duplicate_runs: int
    discarded_small: int
    engine_stats: EngineStats = field(default_factory=EngineStats)


class ExecutionEngine:
    """Drives repeated local searches through a pluggable worker pool.

    Parameters
    ----------
    backend:
        ``auto`` (serial for one worker, processes otherwise),
        ``serial``, ``thread``, ``process``, or a registered custom name.
    workers:
        Pool size; 0 means one per CPU.
    batch_size:
        Tasks per speculative batch (``None`` for the default).  Part of
        the result's deterministic identity; see the module docstring.
    progress:
        Optional per-batch callback (see :mod:`repro.engine.progress`).
    persistent:
        When true, the worker pool created for a run is kept open and
        reused by subsequent runs whose shared context is compatible
        (same graph object, equal fitness and step budget) — the mode
        :class:`~repro.detectors.GraphSession` uses so a detect loop
        pays pool startup and context shipping exactly once.  The owner
        must call :meth:`close` (or use the engine as a context
        manager); non-persistent engines keep the old per-run lifecycle.
    shipping:
        How the compiled graph reaches process workers: ``shm``
        (zero-copy shared-memory segments, O(1) attach per worker),
        ``pickle`` (serialised through the pool initializer), or
        ``auto`` (shm wherever it actually pays, pickle otherwise; see
        :data:`SHIPPING_MODES`).  Never part of the result's identity —
        covers are byte-identical across shipping modes.
    """

    def __init__(
        self,
        backend: str = "auto",
        workers: int = 1,
        batch_size: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        persistent: bool = False,
        shipping: str = "auto",
    ) -> None:
        if shipping not in SHIPPING_MODES:
            raise ConfigurationError(
                f"unknown shipping mode {shipping!r}; expected one of "
                + ", ".join(SHIPPING_MODES)
            )
        self.backend = backend
        self.workers = workers
        self.batch_size = DEFAULT_BATCH_SIZE if batch_size is None else batch_size
        self.progress = progress
        self.persistent = persistent
        self.shipping = shipping
        self._pool = None
        self._pool_context: Optional[WorkerContext] = None
        self._pool_shipping = "inline"
        self._segments: Optional[SharedGraphSegments] = None
        self._close_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    @staticmethod
    def _context_compatible(
        cached: Optional[WorkerContext], context: WorkerContext
    ) -> bool:
        """Whether a pool initialised with ``cached`` can run ``context``.

        Graphs must be the *same object* (workers hold a shipped copy of
        exactly that structure); fitness and step budget compare by
        value (the fitness classes are frozen dataclasses).
        """
        if cached is None:
            return False
        return (
            cached.compiled is context.compiled
            and cached.fitness == context.fitness
            and cached.max_growth_steps == context.max_growth_steps
        )

    @property
    def pool_active(self) -> bool:
        """Whether a persistent worker pool is currently open."""
        return self._pool is not None

    def add_close_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback invoked after each pool shutdown.

        Hooks fire every time an open pool is actually torn down —
        explicit :meth:`close`, context-manager exit, or the implicit
        teardown when a persistent pool is replaced by an incompatible
        one.  The serving layer uses this to keep eviction/lifecycle
        accounting in sync with the real pool state.
        """
        self._close_hooks.append(hook)

    def _resolve_shipping(self, backend_name: str) -> str:
        """Decide how this run's context crosses the worker boundary.

        Only a process backend has a boundary to ship across; serial and
        thread backends run ``inline``.
        """
        if backend_name != "process":
            return "inline"
        if self.shipping == "pickle":
            return "pickle"
        if self.shipping == "shm":
            if not shm_available():
                raise ConfigurationError(
                    "shipping='shm' requested but shared memory is "
                    "unavailable on this platform"
                )
            return "shm"
        # auto: shm only where the context would otherwise be pickled —
        # under fork the initargs are inherited copy-on-write for free.
        if shm_available() and multiprocessing.get_start_method() != "fork":
            return "shm"
        return "pickle"

    def _release_segments(self) -> None:
        if self._segments is not None:
            self._segments.close()
            self._segments = None

    def close(self) -> None:
        """Release the persistent worker pool, if one is open.

        Order matters: the pool shuts down first (joining its workers),
        and only then are any shared-memory segments unlinked — so a
        worker mid-attach can never find its segment gone.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_context = None
            self._pool_shipping = "inline"
            self._release_segments()
            for hook in self._close_hooks:
                hook()
        else:
            self._release_segments()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CompiledGraph,
        fitness: FitnessFunction,
        seeding: SeedingStrategy,
        halting: HaltingCriterion,
        seed: SeedLike = None,
        seed_fraction: float = 0.6,
        max_growth_steps: Optional[int] = None,
        min_community_size: int = 1,
    ) -> EngineOutcome:
        """Execute the OCA outer loop to completion.

        ``seed`` may be an int or an already-consumed shared generator
        (what :class:`~repro.core.oca.OCA` passes after resolving ``c``
        from it); all scheduling randomness is drawn from it centrally,
        so two calls with the same arguments (including ``batch_size``)
        return identical outcomes regardless of ``workers`` and
        ``backend``.  Workers receive the compiled arrays once, via the
        pool initializer; tasks and results are dense-id sets.
        """
        # Fingerprint first — as_master_seed is non-consuming, so the
        # shared generator's draw sequence is untouched.
        master = as_master_seed(seed)
        rng = as_random(seed)
        scheduler = BatchScheduler(
            graph,
            seeding,
            rng=rng,
            master_seed=master,
            seed_fraction=seed_fraction,
            batch_size=self.batch_size,
        )
        reducer = CoverReducer(
            total_nodes=graph.number_of_nodes(),
            min_community_size=min_community_size,
            halting=halting,
            skip_stale_seeds=getattr(seeding, "covered_aware", False),
        )
        context = WorkerContext(
            fitness=fitness, max_growth_steps=max_growth_steps, compiled=graph
        )
        reused = False
        segments: Optional[SharedGraphSegments] = None
        if self.persistent and self._context_compatible(self._pool_context, context):
            backend = self._pool
            # The pool's workers hold the previously shipped context; it
            # is value-equal to this run's, so results are identical.
            context = self._pool_context
            shipping = self._pool_shipping
            reused = True
        else:
            self.close()  # drop an incompatible persistent pool, if any
            effective_workers = self.workers or os.cpu_count() or 1
            shipping = self._resolve_shipping(
                resolve_backend_name(self.backend, effective_workers)
            )
            if shipping == "shm":
                # Export once; workers attach by name in O(1).  The
                # driver-side context keeps the compiled object (it is
                # never pickled locally), so pool-compatibility checks
                # and in-driver reduction are unchanged.
                segments = export_shared(graph)
                context = replace(context, shipped=segments.descriptor)
            backend = make_backend(
                self.backend,
                self.workers,
                initializer=initialize_worker,
                initargs=(context,),
            )
            if self.persistent:
                self._pool = backend
                self._pool_context = context
                self._pool_shipping = shipping
                self._segments = segments
        stats = EngineStats(
            backend=resolve_backend_name(self.backend, backend.workers),
            workers=backend.workers,
            batch_size=self.batch_size,
            shipping=shipping,
            pool_reused=reused,
        )
        # Whole chunks of tasks run in one worker call: one dispatch
        # (and, for processes, one pickle round-trip) amortised over
        # ~batch/(2*workers) tasks.  Chunking is pure plumbing — results
        # flatten back in task order, so covers cannot depend on it.
        batched = getattr(backend, "map_ordered_batched", None)
        calls = [0]  # worker calls made by the most recent run_batch
        if backend.uses_processes:
            chunk_fn = execute_batch_in_worker
        else:

            def chunk_fn(chunk_tasks):
                return [execute_growth_task(context, task) for task in chunk_tasks]

        if batched is not None:

            def run_batch(tasks):
                chunk = max(1, -(-len(tasks) // (max(1, backend.workers) * 2)))
                calls[0] = -(-len(tasks) // chunk)
                return batched(chunk_fn, tasks, chunk)

        elif backend.uses_processes:
            # Registered custom backends may predate the batched path.
            def run_batch(tasks):
                calls[0] = len(tasks)
                return backend.map_ordered(execute_in_worker, tasks)

        else:

            def run_batch(tasks):
                calls[0] = len(tasks)
                return backend.map_ordered(
                    lambda task: execute_growth_task(context, task), tasks
                )

        try:
            while not reducer.should_stop():
                tasks = scheduler.next_batch(reducer.covered)
                if not tasks:
                    break
                communities_before = len(reducer.found)
                duplicates_before = reducer.duplicate_runs
                small_before = reducer.discarded_small
                discarded_before = reducer.discarded_after_halt
                stale_before = reducer.discarded_stale

                dispatch_start = time.perf_counter()
                results = run_batch(tasks)
                dispatch_seconds = time.perf_counter() - dispatch_start

                reduce_start = time.perf_counter()
                stopped = reducer.fold(results)
                reduce_seconds = time.perf_counter() - reduce_start

                record = BatchRecord(
                    index=stats.batches,
                    tasks=len(tasks),
                    new_communities=len(reducer.found) - communities_before,
                    duplicates=reducer.duplicate_runs - duplicates_before,
                    discarded_small=reducer.discarded_small - small_before,
                    discarded_after_halt=reducer.discarded_after_halt
                    - discarded_before,
                    discarded_stale=reducer.discarded_stale - stale_before,
                    covered_fraction=reducer.stats.covered_fraction,
                    dispatch_seconds=dispatch_seconds,
                    reduce_seconds=reduce_seconds,
                    worker_calls=calls[0],
                )
                stats.record_batch(record)
                if self.progress is not None:
                    self.progress(record)
                if stopped:
                    break
        finally:
            if not self.persistent:
                backend.close()  # joins workers before any unlink below
                if segments is not None:
                    segments.close()

        return EngineOutcome(
            found=reducer.found,
            covered=reducer.covered,
            run_stats=reducer.stats,
            duplicate_runs=reducer.duplicate_runs,
            discarded_small=reducer.discarded_small,
            engine_stats=stats,
        )
