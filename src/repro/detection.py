"""The uniform detection contract: one request shape, one result shape.

The paper's evaluation runs four algorithms — OCA, LFK, and CFinder's
k-clique percolation (CPM) — over the same graphs many times.  Before
this module each exposed its own call shape (``oca`` returned an
``OCAResult``, the baselines returned bare covers or their own result
types, and the experiment harness hand-wired adapters).  The detector
API normalises all of them behind two small value types:

:class:`DetectionRequest`
    What to run on: a graph (mutable :class:`~repro.graph.Graph` or
    immutable :class:`~repro.graph.CompiledGraph`), a seed, a free-form
    ``params`` mapping forwarded to the algorithm, and optionally the
    execution engine whose worker pool runs it.

:class:`DetectionResult`
    What every algorithm hands back: the cover, a ``stats`` mapping of
    algorithm-specific diagnostics (including the cache hit/miss
    accounting the serving layer relies on), wall-clock timing, and an
    echo of the algorithm name and parameters that produced it.
    :class:`~repro.core.oca.OCAResult` is a subtype, so OCA callers keep
    their richer fields while generic callers treat every algorithm
    uniformly.

The registry that maps names to algorithms and the session layer that
amortises per-graph work live in :mod:`repro.detectors`; this module is
deliberately dependency-light (graph + communities only) so the core
algorithm modules can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ._rng import SeedLike
from .communities import Cover
from .graph.csr import CompiledGraph, compile_graph

__all__ = [
    "DetectionRequest",
    "DetectionResult",
    "normalized_graph",
    "translate_cover",
]


@dataclass
class DetectionRequest:
    """One community-detection invocation, algorithm-agnostic.

    Attributes
    ----------
    graph:
        A :class:`~repro.graph.Graph` or a
        :class:`~repro.graph.CompiledGraph`.  Either way the algorithm
        runs in the compiled graph's dense-id space and the resulting
        cover is translated back to the original labels, so the two
        forms are interchangeable — covers are byte-identical.
    seed:
        The usual :data:`~repro._rng.SeedLike`; ``None`` means fresh
        entropy.
    params:
        Algorithm-specific keyword parameters (e.g. ``alpha`` for LFK,
        ``k`` for CPM, any :class:`~repro.core.config.OCAConfig` field —
        ``batch_size`` included — or a full ``config`` object for OCA).
        Together with ``graph`` and ``seed`` they determine the cover.
        Echoed back on the result.
    engine:
        Optional :class:`~repro.engine.ExecutionEngine` whose worker pool
        runs the algorithm (currently OCA; the inherently sequential
        baselines ignore it) — the hook
        :class:`~repro.detectors.GraphSession` uses to keep one warm
        pool alive across calls.  Without one OCA runs inline.  The
        engine's worker count never changes the cover.  Typed loosely
        to keep this module import-light.
    """

    graph: Any
    seed: SeedLike = None
    params: Dict[str, Any] = field(default_factory=dict)
    engine: Optional[Any] = None


@dataclass
class DetectionResult:
    """What any registered detector returns.

    Attributes
    ----------
    cover:
        The community structure found, in the label space of the request
        graph (dense ids are translated back for compiled input).
    algorithm:
        Registry name of the detector that produced this result.
    params:
        Echo of the request parameters, for provenance.
    stats:
        Algorithm-specific diagnostics plus the shared serving-layer
        accounting: ``c_source`` (``cache`` / ``lanczos`` /
        ``power_method`` / ``config`` for OCA), ``compiled_reused``
        (whether the request graph arrived already compiled), and
        ``engine_pool``.
    elapsed_seconds:
        Wall-clock duration of the detect call.
    """

    cover: Cover = field(default_factory=Cover)
    algorithm: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def __repr__(self) -> str:
        return (
            f"DetectionResult(algorithm={self.algorithm!r}, "
            f"communities={len(self.cover)}, "
            f"elapsed={self.elapsed_seconds:.3f}s)"
        )


# ----------------------------------------------------------------------
# Graph-form normalisation
# ----------------------------------------------------------------------
def normalized_graph(graph: Any) -> Tuple[CompiledGraph, Optional[CompiledGraph]]:
    """Resolve a request graph to the form the algorithms run on.

    Returns ``(run_graph, source)``.  ``run_graph`` is the
    identity-labelled :class:`CompiledGraph` every detector runs on: a
    :class:`Graph` is compiled once (cached on ``Graph._compiled``), and
    a labelled compiled graph runs through its identity view.
    ``source`` is the compiled graph whose label table translates covers
    back to the caller's space, or ``None`` when ids already are the
    labels.
    """
    compiled = compile_graph(graph)
    if compiled.identity_labels:
        return compiled, None
    return compiled.as_identity(), compiled


def translate_cover(cover: Cover, source: Optional[CompiledGraph]) -> Cover:
    """Map a dense-id cover back to original labels (no-op for ``None``).

    The cover keeps its type, so a :class:`~repro.communities.Partition`
    stays a partition.
    """
    if source is None:
        return cover
    return type(cover)(source.labels_of(community) for community in cover)
