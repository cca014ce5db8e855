"""Parallel execution engine for OCA's embarrassingly parallel core.

The paper's outer loop repeats one independent procedure — pick a seed,
grow a community to a local fitness maximum — so this package splits it
into a sequential control plane (scheduling and reduction) and a
parallel data plane (growth tasks on a worker pool):

* :mod:`~repro.engine.backends` — ``serial`` / ``thread`` / ``process``
  worker pools behind one :class:`~repro.engine.backends.ExecutionBackend`
  protocol, plus a registry for custom pools.
* :mod:`~repro.engine.tasks` — the picklable task, result, and
  worker-context types and the per-task execution kernel.
* :mod:`~repro.engine.scheduler` — central, deterministic seed selection
  into numbered task batches.
* :mod:`~repro.engine.reducer` — ordered dedup/coverage fold that
  re-evaluates the halting criterion before consuming each result.
* :mod:`~repro.engine.progress` — per-batch records, aggregate stats,
  and the progress-callback hook.
* :mod:`~repro.engine.engine` — the orchestrator tying them together.

Determinism: per-task RNG streams are keyed by a master seed and the
global task index (:func:`repro._rng.derive_seed`), and results fold in
task order — so OCA at ``seed=7, workers=8`` returns the same cover as
at ``workers=1``, on any backend.
"""

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    make_backend,
    register_backend,
)
from .engine import DEFAULT_BATCH_SIZE, EngineOutcome, ExecutionEngine
from .progress import BatchRecord, EngineStats, ProgressCallback, log_progress
from .reducer import CoverReducer
from .scheduler import BatchScheduler
from .tasks import GrowthTask, GrowthTaskResult, WorkerContext, execute_growth_task

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "available_backends",
    "make_backend",
    "register_backend",
    "DEFAULT_BATCH_SIZE",
    "EngineOutcome",
    "ExecutionEngine",
    "BatchRecord",
    "EngineStats",
    "ProgressCallback",
    "log_progress",
    "CoverReducer",
    "BatchScheduler",
    "GrowthTask",
    "GrowthTaskResult",
    "WorkerContext",
    "execute_growth_task",
]
