"""OCA — Overlapping Community Search (Section IV of the paper).

The driver repeats one independent procedure: pick a seed, take a random
neighbourhood of it, and greedily climb the directed-Laplacian fitness
``L`` to a local maximum.  Each local maximum is a community; duplicates
across runs are collapsed; the configured halting criterion (plus seed
exhaustion) ends the loop; post-processing merges near-duplicate
communities and, on request, assigns orphan nodes.

Typical use goes through the detector registry::

    from repro import DetectionRequest, get_detector
    from repro.generators import daisy_tree

    instance = daisy_tree(flowers=5, seed=7)
    detector = get_detector("oca")
    result = detector.detect(DetectionRequest(graph=instance.graph, seed=7))
    print(result.cover)

or, for repeated detections over one graph, a
:class:`~repro.detectors.GraphSession`.  The :class:`OCA` class below is
the underlying algorithm driver with the full configuration surface.
The repeated local searches run on :mod:`repro.engine` — inline, or on
the process pool of an :class:`~repro.engine.ExecutionEngine` the caller
owns (``ExecutionEngine(workers=8)``), which returns the exact cover an
inline run would.  The config's ``batch_size`` controls how many
searches are in flight at once; the default of 1 is the paper's exact
sequential semantics, so raising it is what actually enables
parallelism.

The driver works on the compiled int32 CSR arrays
(:mod:`repro.graph.csr`) in dense-id space from end to end; the detector
layer compiles the request graph and translates the cover back to the
caller's labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from .._rng import SeedLike, as_random
from ..communities import Cover
from ..detection import DetectionResult
from ..engine.engine import ExecutionEngine
from ..engine.progress import EngineStats
from ..graph.csr import CompiledGraph
from .config import OCAConfig
from .fitness import DirectedLaplacianFitness, FitnessFunction
from .postprocess import postprocess
from .seeding import SeedingStrategy, make_seeding
from .vector_space import shared_admissible_c

__all__ = ["OCAResult", "OCA"]


@dataclass
class OCAResult(DetectionResult):
    """Everything an OCA execution produced.

    A subtype of :class:`~repro.detection.DetectionResult`: generic
    callers read ``cover`` / ``stats`` / ``elapsed_seconds`` like any
    other algorithm's result, OCA-aware callers get the full picture.

    Attributes
    ----------
    cover:
        The final (post-processed) overlapping community structure.
    raw_cover:
        Local optima before post-processing (after dedup).
    c:
        The inner-product value actually used.
    runs:
        Local searches performed.
    duplicate_runs:
        Runs that rediscovered an already-known community.
    discarded_small:
        Local optima dropped by the minimum-size filter.
    fitness_values:
        Fitness of each distinct raw community, in discovery order.
    elapsed_seconds:
        Wall-clock duration of the whole execution.
    engine_stats:
        Batching/dispatch statistics from the execution engine
        (``None`` only for the trivial empty-graph short-circuit).
    stats:
        Serving-layer accounting: ``c_source`` (``cache`` / ``lanczos``
        / ``power_method`` / ``config``), ``engine_pool`` (``reused``
        / ``fresh`` / ``none``), ``runs``; the detector layer adds
        ``compiled_reused``.
    """

    raw_cover: Cover = field(default_factory=Cover)
    c: float = 0.0
    runs: int = 0
    duplicate_runs: int = 0
    discarded_small: int = 0
    fitness_values: List[float] = field(default_factory=list)
    engine_stats: Optional[EngineStats] = None

    def __repr__(self) -> str:
        return (
            f"OCAResult(communities={len(self.cover)}, runs={self.runs}, "
            f"c={self.c:.4f}, elapsed={self.elapsed_seconds:.3f}s)"
        )


class OCA:
    """The Overlapping Community Search algorithm.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.OCAConfig`; defaults are sensible
        for ground-truth benchmarks (uncovered-first seeding, stagnation
        halting, merge threshold 0.75).

    Notes
    -----
    The instance is stateless across :meth:`run` calls except for the
    immutable configuration, so one ``OCA`` object can be reused across
    graphs and seeds.
    """

    def __init__(self, config: Optional[OCAConfig] = None) -> None:
        self.config = config or OCAConfig()

    # ------------------------------------------------------------------
    def _resolve_c(self, graph) -> "tuple[float, str]":
        """The inner-product value and where it came from.

        Spectral resolution uses a fixed internal start-vector seed (see
        :func:`~repro.core.vector_space.shared_admissible_c`), so it
        neither consumes the run's RNG stream nor varies with the user
        seed — which is what makes the cached value shareable across
        calls without perturbing any cover.
        """
        if self.config.c is not None:
            return self.config.c, "config"
        c, hit = shared_admissible_c(
            graph,
            tol=self.config.spectral_tol,
            max_iterations=self.config.spectral_max_iterations,
            solver=self.config.spectral_solver,
        )
        if hit:
            return c, "cache"
        return c, (
            "lanczos" if self.config.spectral_solver == "lanczos" else "power_method"
        )

    def _resolve_seeding(self) -> SeedingStrategy:
        seeding = self.config.seeding
        if isinstance(seeding, str):
            return make_seeding(seeding)
        return seeding

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CompiledGraph,
        seed: SeedLike = None,
        engine: Optional[ExecutionEngine] = None,
    ) -> OCAResult:
        """Execute OCA on ``graph``; fully deterministic given ``seed``.

        ``graph`` is a :class:`~repro.graph.CompiledGraph`; the search
        and the returned covers are in its dense-id space (the detector
        layer hands over the identity-labelled view and translates the
        covers back to labels).

        The repeated local searches are delegated to the execution
        engine.  All scheduling randomness is consumed centrally from
        one shared generator, so the cover depends only on ``seed`` and
        the config (``batch_size`` included) — never on the engine's
        ``workers`` — and the default ``batch_size=1`` reproduces the
        sequential algorithm draw-for-draw.

        ``engine`` is the :class:`~repro.engine.ExecutionEngine` whose
        worker pool runs the searches (``stats["engine_pool"]`` reports
        ``reused`` or ``fresh``); without one, or on a one-worker
        engine, they run inline and no pool exists (``none``).  The
        caller keeps ownership: this method never closes a supplied
        engine.
        """
        start = time.perf_counter()
        n = graph.number_of_nodes()
        if n == 0:
            return OCAResult(
                cover=Cover(),
                raw_cover=Cover(),
                c=0.0,
                runs=0,
                duplicate_runs=0,
                discarded_small=0,
                elapsed_seconds=time.perf_counter() - start,
            )
        rng = as_random(seed)
        c, c_source = self._resolve_c(graph)
        if self.config.fitness is not None:
            fitness: FitnessFunction = self.config.fitness
        else:
            fitness = DirectedLaplacianFitness(c)
        seeding = self._resolve_seeding()

        # Without a caller's engine the searches run inline: a
        # one-worker engine opens no process and holds nothing to close.
        outcome = (engine or ExecutionEngine()).run(
            graph,
            fitness=fitness,
            seeding=seeding,
            halting=self.config.halting,
            seed=rng,
            seed_fraction=self.config.seed_fraction,
            max_growth_steps=self.config.max_growth_steps,
            min_community_size=self.config.min_community_size,
            batch_size=self.config.batch_size,
        )
        engine_stats = outcome.engine_stats
        if engine_stats.shipping == "inline":
            pool_mode = "none"
        else:
            pool_mode = "reused" if engine_stats.pool_reused else "fresh"

        raw_cover = Cover(outcome.found)
        final_cover = postprocess(
            graph,
            raw_cover,
            merge_threshold=self.config.merge_threshold,
            orphans=self.config.assign_orphans,
        )
        return OCAResult(
            cover=final_cover,
            raw_cover=raw_cover,
            c=c,
            runs=outcome.run_stats.runs,
            duplicate_runs=outcome.duplicate_runs,
            discarded_small=outcome.discarded_small,
            fitness_values=list(outcome.found.values()),
            elapsed_seconds=time.perf_counter() - start,
            engine_stats=outcome.engine_stats,
            stats={
                "c_source": c_source,
                "engine_pool": pool_mode,
                "runs": outcome.run_stats.runs,
            },
        )

