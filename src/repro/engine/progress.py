"""Statistics aggregation for engine executions.

The engine reports one :class:`BatchRecord` per dispatched batch into an
:class:`EngineStats` accumulator, which rides back on the final result
(``records`` keeps the per-batch trail) so benchmarks can attribute
wall-clock between dispatch (parallel) and reduction (sequential)
without re-instrumenting anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["BatchRecord", "EngineStats"]


@dataclass(frozen=True)
class BatchRecord:
    """What one batch did, from dispatch to fold."""

    index: int
    tasks: int
    new_communities: int
    duplicates: int
    discarded_small: int
    discarded_after_halt: int
    discarded_stale: int
    covered_fraction: float
    dispatch_seconds: float
    reduce_seconds: float
    #: Grouped worker calls the batch was split into,
    #: ``ceil(tasks / chunk)`` on a pool and 0 inline.
    worker_calls: int = 0


@dataclass
class EngineStats:
    """Aggregate statistics of one engine execution.

    Attributes
    ----------
    workers / batch_size:
        The engine's pool size (after resolving ``workers=0``) and the
        run's batch size (after defaulting).
    shipping:
        How the shared worker context crossed the process boundary:
        ``inline`` (one worker, no boundary — tasks share the driver's
        objects), ``fork`` (inherited by ``fork``-started workers),
        ``mmap`` (workers memory-map the graph's ``.npy`` files), or
        ``pickle`` (the export failed, so the pool initializer pickles
        the graph into every worker).
    worker_calls:
        Grouped worker calls made, not the task count (0 inline).
    pool_reused:
        Whether the run reused the pool an earlier run on the same
        :class:`~repro.engine.ExecutionEngine` opened (same graph,
        fitness and step budget; any batch size) instead of creating
        and initialising a fresh one.  Always ``False`` inline, where
        there is no pool.
    batches:
        Batches dispatched.
    tasks_dispatched / tasks_folded / tasks_discarded:
        Speculation accounting: dispatched = folded + discarded, where
        discarded results either arrived after the halting criterion
        tripped or failed the staleness guard (their seed node was
        covered by the time the result folded).
    dispatch_seconds / reduce_seconds:
        Wall-clock spent waiting on workers vs. folding results.
    records:
        The per-batch trail (kept small: a few dataclass fields each).
    """

    workers: int = 1
    batch_size: int = 1
    shipping: str = "inline"
    pool_reused: bool = False
    batches: int = 0
    worker_calls: int = 0
    tasks_dispatched: int = 0
    tasks_folded: int = 0
    tasks_discarded: int = 0
    dispatch_seconds: float = 0.0
    reduce_seconds: float = 0.0
    records: List[BatchRecord] = field(default_factory=list)

    def record_batch(self, record: BatchRecord) -> None:
        """Fold one batch record into the aggregate."""
        discarded = record.discarded_after_halt + record.discarded_stale
        self.batches += 1
        self.worker_calls += record.worker_calls
        self.tasks_dispatched += record.tasks
        self.tasks_discarded += discarded
        self.tasks_folded += record.tasks - discarded
        self.dispatch_seconds += record.dispatch_seconds
        self.reduce_seconds += record.reduce_seconds
        self.records.append(record)

    @property
    def speculation_waste(self) -> float:
        """Fraction of dispatched tasks discarded past the halting point."""
        if self.tasks_dispatched == 0:
            return 0.0
        return self.tasks_discarded / self.tasks_dispatched

    def summary(self) -> str:
        """One-line human summary (used by the CLI and benchmarks)."""
        return (
            f"engine[workers={self.workers}, batch={self.batch_size}, "
            f"ship={self.shipping}]: "
            f"{self.batches} batches, {self.tasks_dispatched} tasks "
            f"({self.tasks_discarded} discarded), "
            f"dispatch {self.dispatch_seconds:.3f}s, "
            f"reduce {self.reduce_seconds:.3f}s"
        )

