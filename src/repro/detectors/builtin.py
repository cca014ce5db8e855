"""The five built-in detectors: OCA and the paper's baselines.

Each class adapts one algorithm to the uniform
:class:`~repro.detection.DetectionRequest` /
:class:`~repro.detection.DetectionResult` contract:

* ``oca`` — the paper's algorithm, on the parallel execution engine;
* ``lfk`` — local fitness optimisation (ref. [8]);
* ``cfinder`` — k-clique percolation with the paper's parameterisation
  (``k = 3``);
* ``cpm`` — the same percolation with ``k`` exposed;
* ``modularity_greedy`` — Newman's CNM agglomeration, the disjoint
  reference point.

All five accept either graph form and run one kernel each, in the
dense-id space of the compiled graph; covers are translated back to the
request graph's labels, so they are byte-identical for ``Graph`` and
``CompiledGraph`` input.  ``cpm``, ``cfinder`` and ``modularity_greedy``
ignore the seed and declare ``seed_independent``, so a
:class:`~repro.detectors.GraphSession` computes each of their covers
once per ``(algorithm, params)`` and answers repeats from its memo.  The shared plumbing (compilation, translation,
echo, timing) lives in :class:`DetectorBase`; new algorithms subclass
it, implement ``_detect`` and register with
:func:`~repro.detectors.register_detector`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict

from ..baselines.cpm import _percolate_ids
from ..baselines.lfk import _lfk_compiled
from ..baselines.modularity_greedy import greedy_modularity
from ..communities import Cover
from ..core.config import OCAConfig
from ..core.oca import OCA
from ..detection import (
    DetectionRequest,
    DetectionResult,
    normalized_graph,
    translate_cover,
)
from ..errors import AlgorithmError
from ..graph.csr import CompiledGraph
from .registry import register_detector

__all__ = [
    "CFINDER_K",
    "DetectorBase",
    "OCADetector",
    "LFKDetector",
    "CFinderDetector",
    "CPMDetector",
    "ModularityGreedyDetector",
]


#: CFinder's clique size, "the value of the parameter k that yielded the
#: best results" in the paper; the default ``k`` of ``cpm`` and ``cfinder``.
CFINDER_K = 3


def _take(params: Dict[str, Any], name: str, default: Any) -> Any:
    """Pop ``name`` from a params copy, falling back to ``default``."""
    return params.pop(name) if name in params else default


class DetectorBase:
    """Shared request/response plumbing for registered detectors.

    Subclasses implement :meth:`_detect` against the identity-labelled
    :class:`~repro.graph.csr.CompiledGraph` of the request graph and
    return any :class:`DetectionResult` in its dense-id space; this base
    compiles the request graph (once — the compiled form is cached on
    the graph), translates covers back to the caller's label space,
    stamps the algorithm name, echoes the request parameters, records
    ``stats["compiled_reused"]`` and times the whole call.

    ``seed_independent`` declares that the cover is a pure function of
    the graph and ``params`` — the seed is never read — which lets a
    warm session reuse the cover across seeds.  Leave it ``False``
    unless that holds.
    """

    name: str = ""
    seed_independent: bool = False

    def detect(self, request: DetectionRequest) -> DetectionResult:
        start = time.perf_counter()
        graph = request.graph
        compiled_reused = (
            isinstance(graph, CompiledGraph)
            or getattr(graph, "_compiled", None) is not None
        )
        run_graph, source = normalized_graph(graph)
        result = self._detect(run_graph, request)
        if source is not None:
            result.cover = translate_cover(result.cover, source)
            self._translate_extras(result, source)
        result.algorithm = self.name
        result.params = dict(request.params)
        result.stats["compiled_reused"] = compiled_reused
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # -- hooks ---------------------------------------------------------
    def _detect(
        self, graph: CompiledGraph, request: DetectionRequest
    ) -> DetectionResult:
        raise NotImplementedError

    def _translate_extras(self, result: DetectionResult, source) -> None:
        """Translate algorithm-specific id-space fields (default: none)."""

    def _reject_unknown(self, params: Dict[str, Any]) -> None:
        if params:
            unknown = ", ".join(sorted(params))
            raise AlgorithmError(
                f"unknown parameter(s) for {self.name!r}: {unknown}"
            )


@register_detector("oca")
class OCADetector(DetectorBase):
    """The paper's algorithm behind the uniform contract.

    ``params`` accepts any :class:`~repro.core.config.OCAConfig` field
    (``batch_size`` included), or a complete config object under the key
    ``config``.  The searches run on ``request.engine`` (a session's
    warm pool), whatever the batch size, or inline when there is none.
    """

    name = "oca"

    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        params = dict(request.params)
        config = params.pop("config", None)
        if config is not None:
            if params:
                raise AlgorithmError(
                    "pass either a config object or individual OCA "
                    "parameters, not both"
                )
        else:
            valid = {field.name for field in dataclasses.fields(OCAConfig)}
            unknown = {name: value for name, value in params.items() if name not in valid}
            if unknown:
                self._reject_unknown(unknown)
            config = OCAConfig(**params)
        return OCA(config).run(graph, seed=request.seed, engine=request.engine)

    def _translate_extras(self, result, source) -> None:
        result.raw_cover = translate_cover(result.raw_cover, source)


@register_detector("lfk")
class LFKDetector(DetectorBase):
    """LFK local fitness optimisation (inherently sequential).

    ``params``: ``alpha`` (resolution, default 1.0) and
    ``max_steps_per_community``.  Runs the vectorised dense-id kernels
    of :mod:`repro.baselines.lfk`; a request engine is ignored.
    """

    name = "lfk"

    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        params = dict(request.params)
        alpha = _take(params, "alpha", 1.0)
        max_steps = _take(params, "max_steps_per_community", None)
        self._reject_unknown(params)
        communities, computed = _lfk_compiled(
            graph,
            alpha=alpha,
            seed=request.seed,
            max_steps_per_community=max_steps,
        )
        return DetectionResult(
            cover=Cover(communities),
            stats={"alpha": alpha, "natural_communities": computed},
        )


@register_detector("cpm")
class CPMDetector(DetectorBase):
    """k-clique percolation with the full parameter surface.

    ``params``: ``k`` (default 3).  The seed is ignored — percolation is
    deterministic, so the detector is ``seed_independent`` and a warm
    session enumerates the cliques once per ``k``.  The bitset
    Bron–Kerbosch of
    :mod:`repro.baselines.cliques` enumerates the cliques over the
    compiled rows, and clique adjacency is resolved by the vectorised
    subset-grouping kernel of :mod:`repro.baselines.cpm`.
    """

    name = "cpm"
    seed_independent = True

    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        params = dict(request.params)
        k = _take(params, "k", CFINDER_K)
        self._reject_unknown(params)
        communities, clique_count = _percolate_ids(graph, k=k)
        return DetectionResult(
            cover=Cover(communities),
            stats={"k": k, "maximal_cliques": clique_count},
        )


@register_detector("cfinder")
class CFinderDetector(CPMDetector):
    """CFinder as the paper ran it: CPM at ``k = 3``.

    Identical implementation to :class:`CPMDetector`; registered
    separately so experiment code can name the baseline the way the
    figures label it while parameter sweeps use ``cpm``.  Seed
    independent like ``cpm``; a session memoises the two names
    separately.
    """

    name = "cfinder"


@register_detector("modularity_greedy")
class ModularityGreedyDetector(DetectorBase):
    """Newman's CNM greedy agglomeration — the disjoint reference point.

    ``params``: none.  The seed is ignored — the agglomeration is
    deterministic: gains are exact integers and a tie goes to the
    lowest dense-id pair, so the partition is a pure function of the
    graph's construction order, and the detector is
    ``seed_independent`` (a warm session merges once).  The cover is a
    :class:`~repro.communities.Partition`: a node belongs to exactly one
    block, which is the structural limitation the paper's overlapping
    algorithms move beyond.
    """

    name = "modularity_greedy"
    seed_independent = True

    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        self._reject_unknown(dict(request.params))
        outcome = greedy_modularity(graph)
        return DetectionResult(
            cover=outcome.partition,
            stats={"modularity": outcome.modularity, "merges": outcome.merges},
        )
