"""A uniform way to run any of the paper's algorithms on any graph.

Section V-A of the paper applies its post-processing "to all the results"
because it "also improve[s] the quality of the other algorithms" — so the
quality experiments here run every algorithm through the same
post-processing pipeline.  The runtime experiments (Section V-B) run the
raw algorithms, "we do not run any post-processing".

Dispatch goes through the detector registry
(:func:`repro.detectors.get_detector`): the figure labels (``OCA``,
``LFK``, ``CFinder``) double as registry keys, so any algorithm
registered with :func:`repro.detectors.register_detector` — including
``cpm`` and downstream additions — is runnable here without adapter
wiring.  Per-algorithm experiment parameterisation (the paper's choices)
lives in :data:`EXPERIMENT_PARAMS`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .._rng import SeedLike, as_random, spawn_seed, spawn_streams
from ..communities import Cover
from ..core import postprocess
from ..core.vector_space import DEFAULT_SPECTRAL_SOLVER, shared_admissible_c
from ..detection import DetectionRequest
from ..detectors import get_detector
from ..engine import ExecutionEngine
from ..errors import AlgorithmError, ConfigurationError
from ..graph import Graph
from ..graph.csr import CompiledGraph, attach_compiled, compile_graph

__all__ = [
    "AlgorithmRun",
    "run_algorithm",
    "run_replicates",
    "run_sweep",
    "ALGORITHMS",
    "EXPERIMENT_PARAMS",
]

#: Canonical algorithm names, as the figures label them.
ALGORITHMS = ("OCA", "LFK", "CFinder")

#: The paper's parameterisation of each algorithm, keyed by registry
#: name.  OCA defers its own merge step to the shared post-processing
#: pass (so all algorithms receive identical treatment); LFK uses "the
#: standard parameter alpha = 1"; CFinder runs at "the value of the
#: parameter k that yielded the best results" (k = 3, the detector's
#: default).
EXPERIMENT_PARAMS: Dict[str, Dict[str, Any]] = {
    "oca": {
        "merge_threshold": None,
        "assign_orphans": False,
        "seeding": "uncovered",
    },
    "lfk": {"alpha": 1.0},
    "cfinder": {},
    "cpm": {},
    "modularity_greedy": {},
}


@dataclass
class AlgorithmRun:
    """One algorithm execution: its cover and wall-clock time."""

    algorithm: str
    cover: Cover
    elapsed_seconds: float


def run_algorithm(
    name: str,
    graph: Graph,
    seed: SeedLike = None,
    quality_mode: bool = True,
    merge_threshold: float = 0.4,
    assign_orphans: bool = True,
    workers: int = 1,
    batch_size: Optional[int] = None,
    spectral_solver: str = DEFAULT_SPECTRAL_SOLVER,
) -> AlgorithmRun:
    """Run one algorithm by figure label or registry key.

    ``quality_mode=True`` (Figures 2/3) applies the shared post-processing
    — merge then orphan assignment — to whatever the algorithm returned.
    ``quality_mode=False`` (Figures 5/6) times the raw algorithm only.
    ``workers`` sizes the pool of the execution engine the run gets
    (closed when it returns); ``batch_size`` and ``spectral_solver``
    are OCA parameters — the batch size, part of the cover's identity,
    and the cold ``c`` resolution (Lanczos by default, or the paper's
    power method).  The baselines are inherently sequential and ignore
    all three.
    """
    detector = get_detector(name)
    params = dict(EXPERIMENT_PARAMS.get(detector.name, {}))
    if detector.name == "oca":
        if spectral_solver != DEFAULT_SPECTRAL_SOLVER:
            params["spectral_solver"] = spectral_solver
        if batch_size is not None:
            params["batch_size"] = batch_size
    rng = as_random(seed)
    start = time.perf_counter()
    with ExecutionEngine(workers) as engine:
        result = detector.detect(
            DetectionRequest(
                graph=graph, seed=spawn_seed(rng), params=params, engine=engine
            )
        )
    cover = result.cover
    elapsed = time.perf_counter() - start
    if quality_mode:
        cover = postprocess(
            graph,
            cover,
            merge_threshold=merge_threshold,
            orphans=assign_orphans,
        )
    return AlgorithmRun(algorithm=name, cover=cover, elapsed_seconds=elapsed)


# ----------------------------------------------------------------------
# Replicate fan-out
# ----------------------------------------------------------------------
#
# Quality experiments average over replicate runs that are completely
# independent — the other embarrassingly parallel axis besides OCA's
# inner loop.  One worker runs them inline, more fan them out over a
# process pool; each replicate gets a private stream seed via
# spawn_streams, so the result set is identical for any worker count.
# The graph ships once per worker through the pool initializer (the same
# pattern as :mod:`repro.engine.tasks`), so per-replicate payloads stay
# tiny.
# The compiled arrays ride along — spectral cache included — and are
# attached to the worker's graph cache, so every replicate in a worker
# reuses one compiled graph and one cached ``c`` instead of recompiling
# and re-running the spectral solve.

_ReplicatePayload = Tuple[str, int, bool, float, bool]

_REPLICATE_GRAPH: Optional[Graph] = None


def _initialize_replicates(graph: Graph, compiled: CompiledGraph) -> None:
    """Pool initializer: install the shared graph and its compiled form."""
    global _REPLICATE_GRAPH
    attach_compiled(graph, compiled)
    _REPLICATE_GRAPH = graph


def _run_replicate(graph: Graph, payload: _ReplicatePayload) -> AlgorithmRun:
    name, seed, quality_mode, merge_threshold, assign_orphans = payload
    return run_algorithm(
        name,
        graph,
        seed=seed,
        quality_mode=quality_mode,
        merge_threshold=merge_threshold,
        assign_orphans=assign_orphans,
    )


def _execute_replicate(payload: _ReplicatePayload) -> AlgorithmRun:
    """Module-level worker entry point (picklable for process pools)."""
    if _REPLICATE_GRAPH is None:
        raise AlgorithmError("replicate worker used before initialisation")
    return _run_replicate(_REPLICATE_GRAPH, payload)


def run_replicates(
    name: str,
    graph: Graph,
    replicates: int,
    seed: SeedLike = None,
    quality_mode: bool = True,
    merge_threshold: float = 0.4,
    assign_orphans: bool = True,
    workers: int = 1,
) -> List[AlgorithmRun]:
    """Run ``replicates`` independent executions, fanned out over a pool.

    Returns the runs in replicate order.  Replicate ``i`` uses stream
    seed ``spawn_streams(seed, replicates)[i]``, so the same call with
    more workers (0 = one per CPU) returns byte-identical covers, just
    sooner.

    The graph is compiled once here, in the driver, and shipped to every
    worker next to the graph; replicates then hit the worker-local
    compiled cache (for OCA, spectral ``c`` included) instead of each
    paying the O(n + m) compile and the spectral solve.
    """
    if replicates < 1:
        raise AlgorithmError(f"replicates must be >= 1, got {replicates}")
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    detector_name = get_detector(name).name  # validates the name up front
    seeds = spawn_streams(seed, replicates)
    payloads: List[_ReplicatePayload] = [
        (name, s, quality_mode, merge_threshold, assign_orphans)
        for s in seeds
    ]
    compiled = compile_graph(graph)
    if detector_name == "oca":
        # Resolve the spectral c once in the driver so the shipped
        # compiled form carries it and no worker re-runs the power
        # method (the dominant cold-start cost at scale).
        shared_admissible_c(graph)
    workers = workers or os.cpu_count() or 1
    if workers == 1:
        # The driver's own graph, not the worker global: nothing of this
        # call outlives it.
        attach_compiled(graph, compiled)
        return [_run_replicate(graph, payload) for payload in payloads]
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_initialize_replicates,
        initargs=(graph, compiled),
    ) as pool:
        chunksize = max(1, len(payloads) // (workers * 2))
        return list(pool.map(_execute_replicate, payloads, chunksize=chunksize))


# ----------------------------------------------------------------------
# Multi-graph sweeps through the serving layer
# ----------------------------------------------------------------------
def run_sweep(
    name: str,
    graphs,
    replicates: int = 1,
    seed: SeedLike = None,
    quality_mode: bool = True,
    merge_threshold: float = 0.4,
    assign_orphans: bool = True,
    manager=None,
    max_sessions: Optional[int] = None,
) -> "List[List[AlgorithmRun]]":
    """Replicate runs over *many* graphs, served from one warm manager.

    The quality experiments sweep one algorithm over a family of LFR
    instances; running each ``(graph, replicate)`` through
    :func:`run_algorithm` re-pays graph compilation and the spectral
    ``c`` for every replicate.  This routes the whole sweep through a
    :class:`~repro.serving.SessionManager` instead: each graph binds a
    session once (its replicates all hit warm state), and the LRU keeps
    the working set bounded when the family outgrows memory.

    Seeds mirror the established derivation exactly — graph ``i`` gets
    base seed ``spawn_streams(seed, len(graphs))[i]``, its replicate
    ``j`` gets ``spawn_streams(base, replicates)[j]`` — so
    ``result[i]`` is byte-identical (cover for cover) to
    ``run_replicates(name, graphs[i], replicates,
    seed=spawn_streams(seed, len(graphs))[i])``.

    ``manager`` lets callers share one manager across sweeps, or run
    them on a process pool (it is left open, and its ``workers`` size
    the pool); otherwise a private inline manager sized ``max_sessions``
    (default: the whole family) is created and closed on exit.
    Returns one list of :class:`AlgorithmRun` per graph, in graph
    order.
    """
    from ..serving import SessionManager

    graphs = list(graphs)
    if replicates < 1:
        raise AlgorithmError(f"replicates must be >= 1, got {replicates}")
    detector_name = get_detector(name).name  # validates the name up front
    graph_seeds = spawn_streams(seed, len(graphs))
    owns_manager = manager is None
    if owns_manager:
        manager = SessionManager(
            # None-check, not truthiness: an explicit max_sessions=0
            # must reach SessionManager's validation, not be masked.
            max_sessions=(
                max_sessions if max_sessions is not None else max(1, len(graphs))
            ),
        )
    try:
        sweeps: List[List[AlgorithmRun]] = []
        for graph, graph_seed in zip(graphs, graph_seeds):
            runs: List[AlgorithmRun] = []
            for replicate_seed in spawn_streams(graph_seed, replicates):
                # The same derivation chain as run_algorithm: the
                # detect seed is spawned from the replicate seed, so
                # covers match the run_replicates path draw-for-draw.
                rng = as_random(replicate_seed)
                start = time.perf_counter()
                result = manager.detect(
                    graph,
                    detector_name,
                    seed=spawn_seed(rng),
                    **EXPERIMENT_PARAMS.get(detector_name, {}),
                )
                cover = result.cover
                elapsed = time.perf_counter() - start
                if quality_mode:
                    cover = postprocess(
                        graph,
                        cover,
                        merge_threshold=merge_threshold,
                        orphans=assign_orphans,
                    )
                runs.append(
                    AlgorithmRun(
                        algorithm=name, cover=cover, elapsed_seconds=elapsed
                    )
                )
            sweeps.append(runs)
        return sweeps
    finally:
        if owns_manager:
            manager.close()
