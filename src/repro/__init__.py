"""repro — reproduction of *Overlapping Community Search for Social
Networks* (Padrol-Sureda, Perarnau-Llobet, Pfeifle, Muntés-Mulero;
ICDE 2010).

The package implements:

* **OCA**, the paper's overlapping community search algorithm
  (:mod:`repro.core`), including the virtual vector representation, the
  spectral computation of ``c = -1/lambda_min`` (Lanczos by default, the
  paper's power method with ``spectral_solver="power"``), and
  the directed-Laplacian fitness;
* the **baselines** it compares against — LFK local fitness optimisation
  and CFinder k-clique percolation (:mod:`repro.baselines`), plus
  Newman's CNM as the disjoint reference point;
* a **unified detector API** (:mod:`repro.detectors`): every algorithm
  registers under a string key and speaks one
  :class:`~repro.detection.DetectionRequest` /
  :class:`~repro.detection.DetectionResult` contract —
  ``get_detector("oca" | "lfk" | "cfinder" | "cpm" |
  "modularity_greedy")`` — while
  :class:`~repro.detectors.GraphSession` binds one graph and amortises
  its expensive artifacts (compiled CSR form, spectral ``c``, warm
  worker pool) across repeated detections;
* a **multi-graph serving layer** (:mod:`repro.serving`):
  :class:`~repro.serving.SessionManager` keeps a bounded LRU of warm
  sessions keyed by content fingerprint,
  :class:`~repro.serving.ServingQueue` adds bounded asynchronous
  admission with backpressure and deadline-aware request shedding, and
  ``repro-oca serve`` exposes both as a JSONL request/response
  front-end — batch (stdin/files) or TCP
  (:class:`~repro.serving.ServingServer`, ``--listen HOST:PORT``, with
  round-robin per-client fairness);
* **warm-start persistence** (:mod:`repro.store`):
  :class:`~repro.store.GraphStore` saves compiled graphs (CSR arrays,
  labels, spectral cache) to disk keyed by fingerprint — atomically
  written, checksum-verified, mmap-loaded — and
  :class:`~repro.store.StoreWarmer` pre-warms a restarted server's
  most-recently-used graphs (``repro-oca serve --store-dir``);
* the **benchmarks** of its evaluation — the LFR generator, the daisy /
  daisy-tree overlapping benchmark, and a Wikipedia-scale synthetic graph
  (:mod:`repro.generators`);
* the **quality measures** ``rho`` (Eq. V.1) and ``Theta`` (Eq. V.2)
  plus standard metrics (:mod:`repro.communities`);
* a self-contained **graph substrate** (:mod:`repro.graph`) — a mutable
  label-keyed :class:`~repro.graph.Graph` for building and IO, plus an
  immutable compiled CSR form (:func:`~repro.graph.compile_graph`) on
  which every algorithm runs in vectorised integer-id space — and the
  **experiment harness**
  regenerating every table and figure (:mod:`repro.experiments`);
* an **execution engine** (:mod:`repro.engine`) that runs the repeated
  local searches inline (``workers=1``) or fans them out over a process
  pool, with deterministic per-task RNG streams; covers are identical
  for any worker count (OCA's ``batch_size > 1`` opts into the
  speculative batching that makes the workers useful; the default of 1
  is exactly sequential).

Quickstart::

    from repro import DetectionRequest, GraphSession, get_detector
    from repro.generators import daisy_tree

    instance = daisy_tree(flowers=5, seed=7)

    # one-shot detection through the registry
    result = get_detector("oca").detect(
        DetectionRequest(graph=instance.graph, seed=7)
    )
    for community in result.cover:
        print(sorted(community))

    # repeated detection: graph setup paid exactly once
    with GraphSession(instance.graph) as session:
        covers = [session.detect("oca", seed=s).cover for s in range(10)]
"""

from .errors import (
    ReproError,
    GraphError,
    NodeNotFoundError,
    EdgeNotFoundError,
    GraphFormatError,
    CommunityError,
    EmptyCommunityError,
    GeneratorError,
    AlgorithmError,
    ConvergenceError,
    ConfigurationError,
    ServingError,
    SessionClosedError,
    QueueFull,
    DeadlineExceeded,
)
from .graph import CompiledGraph, Graph, compile_graph
from .communities import Community, Cover, Partition, rho, theta
from .detection import DetectionRequest, DetectionResult
from .core import OCA, OCAConfig, OCAResult, admissible_c
from .engine import EngineStats, ExecutionEngine
from .detectors import (
    CommunityDetector,
    GraphSession,
    available_detectors,
    get_detector,
    register_detector,
)
from .serving import (
    ServeRequest,
    ServingQueue,
    ServingServer,
    ServingService,
    SessionManager,
    graph_fingerprint,
)
from .store import GraphStore, StoreWarmer

__version__ = "6.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "GraphFormatError",
    "CommunityError",
    "EmptyCommunityError",
    "GeneratorError",
    "AlgorithmError",
    "ConvergenceError",
    "ConfigurationError",
    "Graph",
    "CompiledGraph",
    "compile_graph",
    "Community",
    "Cover",
    "Partition",
    "rho",
    "theta",
    "DetectionRequest",
    "DetectionResult",
    "CommunityDetector",
    "register_detector",
    "get_detector",
    "available_detectors",
    "GraphSession",
    "ServingError",
    "SessionClosedError",
    "QueueFull",
    "DeadlineExceeded",
    "graph_fingerprint",
    "SessionManager",
    "ServingQueue",
    "ServeRequest",
    "ServingServer",
    "ServingService",
    "GraphStore",
    "StoreWarmer",
    "OCA",
    "OCAConfig",
    "OCAResult",
    "admissible_c",
    "ExecutionEngine",
    "EngineStats",
]
