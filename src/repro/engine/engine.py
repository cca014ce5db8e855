"""The execution engine: batched, parallel, deterministic local search.

Orchestrates the three engine roles around the worker processes:

1. the :class:`~repro.engine.scheduler.BatchScheduler` picks the next
   batch of seed nodes centrally (sequential, cheap);
2. the batch's growth tasks run inline (one worker) or on a
   ``ProcessPoolExecutor`` (more than one), in grouped worker calls
   (parallel, expensive);
3. the :class:`~repro.engine.reducer.CoverReducer` folds results in task
   order, re-evaluating the halting criterion before each one
   (sequential, cheap).

The engine works in the dense-id space of a
:class:`~repro.graph.csr.CompiledGraph` from end to end: the scheduler
draws ids, workers grow id sets, and the reducer folds them; the
detector layer translates the final cover back to labels.

Determinism contract: the outcome is a pure function of ``(graph,
config, seed, batch_size)`` — the worker count only changes wall-clock
time, never the cover.  With ``batch_size=1`` the engine reproduces the
paper's sequential algorithm draw-for-draw; larger batches trade
bounded covered-set staleness for throughput.  Batches are speculative;
the reducer discards whatever a sequential run would not have executed.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from .._rng import SeedLike, as_master_seed, as_random
from ..core.config import DEFAULT_BATCH_SIZE
from ..core.fitness import FitnessFunction
from ..core.halting import HaltingCriterion, RunStatistics
from ..core.seeding import SeedingStrategy
from ..errors import ConfigurationError
from ..graph.csr import CompiledGraph, save_csr
from .progress import BatchRecord, EngineStats
from .reducer import CoverReducer
from .scheduler import BatchScheduler
from .tasks import (
    GrowthTask,
    GrowthTaskResult,
    WorkerContext,
    execute_batch_in_worker,
    execute_growth_task,
    initialize_worker,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "EngineOutcome",
    "ExecutionEngine",
]


@dataclass
class EngineOutcome:
    """Everything one engine execution produced, pre-postprocessing."""

    found: Dict[frozenset, float]
    covered: Set[int]
    run_stats: RunStatistics
    duplicate_runs: int
    discarded_small: int
    engine_stats: EngineStats = field(default_factory=EngineStats)


def _shipping_for(workers: int) -> str:
    """How the worker context reaches ``workers`` workers.

    One worker runs ``inline``: there is no boundary to cross.  Under
    ``fork`` the pool initializer's arguments are inherited
    copy-on-write (``fork``).  Any other start method would pickle them
    into every worker, so the pool saves the CSR arrays once as ``.npy``
    files that each worker memory-maps (``mmap``).
    """
    if workers == 1:
        return "inline"
    if multiprocessing.get_start_method() == "fork":
        return "fork"
    return "mmap"


class _Pool:
    """A ``ProcessPoolExecutor`` for one worker context's growth tasks.

    Its initializer installs the context once per worker; tasks then
    travel in grouped worker calls.  Under ``mmap`` shipping the pool
    owns ``export``, a temporary directory of the graph's ``.npy``
    files; a pool whose export fails with :class:`OSError` (say, a full
    disk) pickles the context instead (``pickle``) rather than failing
    the run.  Only an engine of more than one worker opens a pool: a
    single worker runs every task inline.
    """

    def __init__(self, context: WorkerContext, workers: int) -> None:
        self.context = context
        self.workers = workers
        self.shipping = _shipping_for(workers)
        self.export: Optional[tempfile.TemporaryDirectory] = None
        if self.shipping == "mmap":
            try:
                self.export = tempfile.TemporaryDirectory(prefix="repro_graph_")
                save_csr(context.compiled, self.export.name)
            except OSError:
                if self.export is not None:
                    self.export.cleanup()
                    self.export = None
                self.shipping = "pickle"
            else:
                # Only the workers get the path: self.context keeps the
                # compiled object, which the pool-compatibility check
                # compares.
                context = replace(context, shipped=self.export.name)
        self.executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=initialize_worker,
            initargs=(context,),
        )

    def run(self, tasks: List[GrowthTask]) -> Tuple[List[GrowthTaskResult], int]:
        """Results in task order, and the number of worker calls made.

        Each chunk of ~batch/(2*workers) tasks is one worker call: one
        dispatch and one pickle round-trip.  Chunking is pure plumbing —
        results flatten back in task order, so covers cannot depend on
        it.
        """
        chunk = -(-len(tasks) // (self.workers * 2))
        calls = -(-len(tasks) // chunk)
        chunks = (tasks[i : i + chunk] for i in range(0, len(tasks), chunk))
        results: List[GrowthTaskResult] = []
        for chunk_results in self.executor.map(execute_batch_in_worker, chunks):
            results.extend(chunk_results)
        return results, calls

    def close(self) -> None:
        """Join the workers, and only then remove any export, so a
        worker mid-map can never find its files gone."""
        self.executor.shutdown(wait=True)
        if self.export is not None:
            self.export.cleanup()


def _run_inline(
    context: WorkerContext, tasks: List[GrowthTask]
) -> Tuple[List[GrowthTaskResult], int]:
    """Run ``tasks`` in this process, in order; no worker call is made."""
    return [execute_growth_task(context, task) for task in tasks], 0


class ExecutionEngine:
    """Drives repeated local searches, inline or on a process pool.

    Parameters
    ----------
    workers:
        1 runs every task inline and never opens a pool; more than one
        run them on a ``ProcessPoolExecutor`` of that size; 0 means one
        per CPU.  The only setting an engine has: it sizes the pool and
        never changes a cover.

    The batch size is per run (see :meth:`run`), so one warm pool serves
    every ``batch_size``.  The pool a run opens stays open for later
    runs whose shared context is compatible (same graph object, equal
    fitness and step budget) — a detect loop pays pool startup and
    context shipping once — until :meth:`close` or the end of the
    engine's ``with`` block.  How the context reaches process workers is
    not a knob: memory-mapped ``.npy`` files wherever the start method
    would otherwise serialise it (see :func:`_shipping_for`).

    An engine must be closed: use it in a ``with`` block or call
    :meth:`close`.  One left open keeps its worker processes — and,
    under a non-``fork`` start method, its export directory — until it
    is garbage-collected, and then the directory's finalizer removes it
    with a :class:`ResourceWarning`, maybe before the workers are joined.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0 (0 = one per CPU), got {workers}"
            )
        self.workers = workers
        self._pool: Optional[_Pool] = None
        self._close_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    @staticmethod
    def _context_compatible(pool: Optional[_Pool], context: WorkerContext) -> bool:
        """Whether an open ``pool`` can run ``context``.

        Graphs must be the *same object* (workers hold a shipped copy of
        exactly that structure); fitness and step budget compare by
        value (the fitness classes are frozen dataclasses).
        """
        if pool is None:
            return False
        return (
            pool.context.compiled is context.compiled
            and pool.context.fitness == context.fitness
            and pool.context.max_growth_steps == context.max_growth_steps
        )

    @property
    def pool_active(self) -> bool:
        """Whether a worker pool is currently open (never, inline)."""
        return self._pool is not None

    def add_close_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback invoked after each pool shutdown.

        Hooks fire every time an open process pool is torn down —
        explicit :meth:`close`, context-manager exit, or the implicit
        teardown when a pool is replaced by one for an incompatible
        context.  The serving layer uses this to keep eviction/lifecycle
        accounting in sync with the real pool state.
        """
        self._close_hooks.append(hook)

    def close(self) -> None:
        """Release the worker pool, if one is open (workers are joined
        before any export directory is removed)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            for hook in self._close_hooks:
                hook()

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
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> EngineOutcome:
        """Execute the OCA outer loop to completion.

        ``seed`` may be an int or an already-consumed shared generator
        (what :class:`~repro.core.oca.OCA` passes after resolving ``c``
        from it); all scheduling randomness is drawn from it centrally,
        so two calls with the same arguments (including ``batch_size``,
        tasks per speculative batch) return identical outcomes regardless of ``workers``.  Workers receive
        the compiled arrays once, via the pool initializer; tasks and
        results are dense-id sets.
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
            batch_size=batch_size,
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
        workers = self.workers or os.cpu_count() or 1
        if workers == 1:
            reused = False
            run_tasks = partial(_run_inline, context)
        else:
            # A compatible pool's workers hold a value-equal context, so
            # results are identical to a fresh pool's.
            reused = self._context_compatible(self._pool, context)
            if not reused:
                self.close()  # drop the pool of an incompatible context
                self._pool = _Pool(context, workers)
            run_tasks = self._pool.run
        stats = EngineStats(
            workers=workers,
            batch_size=batch_size,
            shipping="inline" if workers == 1 else self._pool.shipping,
            pool_reused=reused,
        )
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
            results, worker_calls = run_tasks(tasks)
            dispatch_seconds = time.perf_counter() - dispatch_start

            reduce_start = time.perf_counter()
            stopped = reducer.fold(results)
            reduce_seconds = time.perf_counter() - reduce_start

            stats.record_batch(
                BatchRecord(
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
                    worker_calls=worker_calls,
                )
            )
            if stopped:
                break

        return EngineOutcome(
            found=reducer.found,
            covered=reducer.covered,
            run_stats=reducer.stats,
            duplicate_runs=reducer.duplicate_runs,
            discarded_small=reducer.discarded_small,
            engine_stats=stats,
        )
