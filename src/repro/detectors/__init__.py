"""The unified detector API: registry, built-in detectors, sessions.

Two abstractions replace the four incompatible per-algorithm call
shapes the library grew up with:

* the **registry** (:func:`get_detector`, :func:`register_detector`)
  maps string keys to :class:`CommunityDetector` implementations that
  all speak :class:`~repro.detection.DetectionRequest` /
  :class:`~repro.detection.DetectionResult`;
* the **session** (:class:`GraphSession`) binds one graph and amortises
  its expensive artifacts — compiled CSR form, spectral ``c``, warm
  worker pool — across repeated detect calls.

Quickstart::

    from repro import DetectionRequest, GraphSession, get_detector

    # one-shot
    result = get_detector("oca").detect(DetectionRequest(graph=g, seed=7))

    # serving loop: graph setup paid exactly once
    with GraphSession(g, workers=4) as session:
        covers = [
            session.detect("oca", seed=s, batch_size=32).cover for s in range(20)
        ]
        print(session.stats)

Importing this package registers the five built-in detectors (``oca``,
``lfk``, ``cfinder``, ``cpm``, ``modularity_greedy``).
"""

from .registry import (
    CommunityDetector,
    available_detectors,
    get_detector,
    register_detector,
)
from .builtin import (
    CFinderDetector,
    CPMDetector,
    DetectorBase,
    LFKDetector,
    ModularityGreedyDetector,
    OCADetector,
)
from .session import GraphSession

__all__ = [
    "CommunityDetector",
    "register_detector",
    "get_detector",
    "available_detectors",
    "DetectorBase",
    "OCADetector",
    "LFKDetector",
    "CFinderDetector",
    "CPMDetector",
    "ModularityGreedyDetector",
    "GraphSession",
]
