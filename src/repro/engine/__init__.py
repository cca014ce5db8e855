"""Parallel execution engine for OCA's embarrassingly parallel core.

The paper's outer loop repeats one independent procedure — pick a seed,
grow a community to a local fitness maximum — so this package splits it
into a sequential control plane (scheduling and reduction) and a
parallel data plane (growth tasks):

* :mod:`~repro.engine.tasks` — the picklable task, result, and
  worker-context types and the per-task execution kernel.
* :mod:`~repro.engine.scheduler` — central, deterministic seed selection
  into numbered task batches.
* :mod:`~repro.engine.reducer` — ordered dedup/coverage fold that
  re-evaluates the halting criterion before consuming each result.
* :mod:`~repro.engine.progress` — per-batch records and aggregate stats.
* :mod:`~repro.engine.engine` — the orchestrator tying them together.
  ``workers=1`` runs a batch's tasks inline; more workers (0 = one per
  CPU) run them on one ``ProcessPoolExecutor``, whose workers
  memory-map the compiled graph from ``.npy`` files wherever the start
  method would otherwise serialise it (every start method but ``fork``).

Determinism: per-task RNG streams are keyed by a master seed and the
global task index (:func:`repro._rng.derive_seed`), and results fold in
task order — so OCA at ``seed=7, workers=8`` returns the same cover as
at ``workers=1``.
"""

from .engine import DEFAULT_BATCH_SIZE, EngineOutcome, ExecutionEngine
from .progress import BatchRecord, EngineStats
from .reducer import CoverReducer
from .scheduler import BatchScheduler
from .tasks import GrowthTask, GrowthTaskResult, WorkerContext, execute_growth_task

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "EngineOutcome",
    "ExecutionEngine",
    "BatchRecord",
    "EngineStats",
    "CoverReducer",
    "BatchScheduler",
    "GrowthTask",
    "GrowthTaskResult",
    "WorkerContext",
    "execute_growth_task",
]
