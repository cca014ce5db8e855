"""Progress and statistics aggregation for engine executions.

The engine reports one :class:`BatchRecord` per dispatched batch into an
:class:`EngineStats` accumulator, and optionally forwards each record to
a user callback — the hook a service layer or progress bar attaches to.
``EngineStats`` also rides back on the final result so benchmarks can
attribute wall-clock between dispatch (parallel) and reduction
(sequential) without re-instrumenting anything.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, TextIO

__all__ = ["BatchRecord", "EngineStats", "ProgressCallback", "log_progress"]


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
    #: Executor calls the batch dispatched (``ceil(tasks / chunk)`` when
    #: tasks are chunked into grouped worker calls; ``tasks`` otherwise).
    worker_calls: int = 0


#: Signature of the per-batch progress hook.
ProgressCallback = Callable[[BatchRecord], None]


@dataclass
class EngineStats:
    """Aggregate statistics of one engine execution.

    Attributes
    ----------
    backend / workers / batch_size:
        The execution configuration actually used (after ``auto``
        resolution and defaulting).
    shipping:
        How the shared worker context crossed the process boundary:
        ``shm`` (zero-copy shared-memory segments), ``pickle``
        (serialised through the pool initializer), or ``inline`` (no
        boundary — serial/thread backends share the driver's objects).
    worker_calls:
        Executor dispatches actually made; with chunked execution this
        is the number of grouped worker calls, not the task count.
    pool_reused:
        Whether the run reused a persistent worker pool warmed by an
        earlier run (see ``ExecutionEngine(persistent=True)``) instead
        of creating and initialising a fresh one.
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

    backend: str = "serial"
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
            f"engine[{self.backend} x{self.workers}, batch={self.batch_size}, "
            f"ship={self.shipping}]: "
            f"{self.batches} batches, {self.tasks_dispatched} tasks "
            f"({self.tasks_discarded} discarded), "
            f"dispatch {self.dispatch_seconds:.3f}s, "
            f"reduce {self.reduce_seconds:.3f}s"
        )


def log_progress(stream: Optional[TextIO] = None) -> ProgressCallback:
    """A ready-made progress callback printing one line per batch."""
    out = stream or sys.stderr

    def callback(record: BatchRecord) -> None:
        print(
            f"batch {record.index}: {record.tasks} tasks, "
            f"+{record.new_communities} communities, "
            f"{record.covered_fraction:.1%} covered "
            f"({record.dispatch_seconds:.3f}s dispatch)",
            file=out,
        )

    return callback
