"""Task and worker-context types for the execution engine.

A *growth task* is one unit of OCA work: "start from this initial node
set and climb to a local fitness maximum".  All randomness — seed
selection and the random-neighbourhood draw — happens centrally in the
scheduler *before* the task is created, and the greedy climb itself is
fully deterministic, so a task is a pure value: any worker, in any
process, at any time produces the same result from it.

Tasks stay small (an index, a node, the initial set, an integer stream
seed); the heavy shared state — the graph and the fitness function —
travels once per worker inside a :class:`WorkerContext` via the pool
initializer.  The graph is a :class:`~repro.graph.csr.CompiledGraph`:
three int32 numpy arrays, inherited under ``fork`` and memory-mapped
from ``.npy`` files under any other start method.  Tasks and results
are dense-id sets, the same space the scheduler and the reducer work
in, so nothing is translated at the worker boundary.

The task index doubles as the fold order, so results are mergeable no
matter which worker computed them or when they arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from ..core.fitness import FitnessFunction
from ..core.growth import grow_community
from ..errors import SessionClosedError
from ..graph.csr import CompiledGraph, map_csr

__all__ = [
    "GrowthTask",
    "GrowthTaskResult",
    "WorkerContext",
    "execute_growth_task",
    "initialize_worker",
    "execute_batch_in_worker",
]


@dataclass(frozen=True)
class GrowthTask:
    """One scheduled local search.

    Attributes
    ----------
    index:
        Global task counter; keys the fold order and the RNG stream.
    seed_node:
        Node id the search was seeded from (picked centrally); the
        reducer uses it for the staleness guard.
    initial_members:
        The "random neighbourhood of the seed" the climb starts from,
        as dense ids, drawn centrally by the scheduler so the draw order
        matches the sequential algorithm exactly.
    rng_seed:
        Private stream seed, ``derive_seed(master, STREAM_GROWTH,
        index)``; handed to the (currently deterministic) growth kernel
        so future stochastic tie-breaking stays reproducible per task.
    """

    index: int
    seed_node: int
    initial_members: frozenset
    rng_seed: int


@dataclass(frozen=True)
class GrowthTaskResult:
    """What one local search produced (dense ids), tagged for ordered
    reduction."""

    index: int
    seed_node: int
    members: frozenset
    fitness_value: float
    steps: int
    converged: bool


@dataclass(frozen=True)
class WorkerContext:
    """Shared read-only state a worker needs to execute any growth task.

    Shipped once per worker (pool initializer), not once per task; must
    therefore stay picklable for process workers.  ``compiled`` is
    the immutable :class:`~repro.graph.csr.CompiledGraph`; its ids are
    their own insertion ranks, so no tie-break map travels.

    ``shipped`` is the directory of ``.npy`` files the engine saved the
    compiled arrays into (:func:`~repro.graph.csr.save_csr`) when the
    pool does not ``fork``.  Pickling such a context *drops* the arrays
    and carries only that path; a worker that unpickles it maps the
    files read-only in O(1).  The worker's graph has identity labels:
    tasks and results are dense-id sets, so labels stay in the driver.
    In-process delivery (one inline worker, fork-inherited initargs)
    never pickles the context, so it keeps the driver's compiled object
    untouched.
    """

    fitness: FitnessFunction
    max_growth_steps: Optional[int]
    compiled: Optional[CompiledGraph]
    shipped: Optional[str] = None

    def __getstate__(self):
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        if state["shipped"] is not None:
            # The path is the payload; the arrays stay behind.
            state["compiled"] = None
        return state

    def __setstate__(self, state) -> None:
        if state["shipped"] is not None:
            try:
                arrays = map_csr(state["shipped"])
            except FileNotFoundError:
                raise SessionClosedError(
                    f"graph export {state['shipped']!r} has been removed; "
                    "the pool that made it is closed"
                ) from None
            compiled = CompiledGraph.from_shared(**arrays, labels=None)
            state = {**state, "compiled": compiled}
        for name, value in state.items():
            object.__setattr__(self, name, value)


def execute_growth_task(context: WorkerContext, task: GrowthTask) -> GrowthTaskResult:
    """Run one greedy climb; a pure function of ``(context, task)``."""
    growth = grow_community(
        context.compiled,
        task.initial_members,
        context.fitness,
        max_steps=context.max_growth_steps,
        seed=task.rng_seed,
    )
    return GrowthTaskResult(
        index=task.index,
        seed_node=task.seed_node,
        members=growth.members,
        fitness_value=growth.fitness_value,
        steps=growth.steps,
        converged=growth.converged,
    )


# ----------------------------------------------------------------------
# Process-pool plumbing: the context is installed once per worker via the
# pool initializer; tasks then reference it through a module global so
# only the small task object crosses the pipe per call.
# ----------------------------------------------------------------------
_WORKER_CONTEXT: Optional[WorkerContext] = None


def initialize_worker(context: WorkerContext) -> None:
    """Pool initializer: install the shared context in this worker."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def execute_batch_in_worker(tasks: Sequence[GrowthTask]) -> List[GrowthTaskResult]:
    """Run a whole chunk of tasks in one worker call.

    One pipe round-trip and one executor dispatch amortised over the
    chunk instead of paid per task; each task is still the same pure
    function of ``(context, task)``, and the chunk's results come back
    in task order, so chunking can never change a cover — only its
    wall-clock cost.
    """
    if _WORKER_CONTEXT is None:
        raise RuntimeError(
            "worker context not initialised; the pool must call "
            "initialize_worker before dispatching tasks"
        )
    context = _WORKER_CONTEXT
    return [execute_growth_task(context, task) for task in tasks]
