"""Baseline community-detection algorithms the paper compares against.

* :mod:`~repro.baselines.lfk` — LFK local fitness optimisation (ref. [8]).
* :mod:`~repro.baselines.cpm` — CFinder / k-clique percolation (ref. [12]),
  built on :mod:`~repro.baselines.cliques` (Bron–Kerbosch).
* :mod:`~repro.baselines.modularity_greedy` — Newman's fast greedy
  partitioning (ref. [11]); the non-overlapping reference point.

Each runs on a :class:`~repro.graph.CompiledGraph` in dense-id space;
the ``lfk`` / ``cfinder`` / ``cpm`` / ``modularity_greedy`` detectors
(:func:`~repro.detectors.get_detector`) are the entry points that take
either graph form and return covers in the caller's labels.
"""

from .cliques import maximal_cliques, clique_number
from .modularity_greedy import GreedyModularityResult, greedy_modularity

__all__ = [
    "maximal_cliques",
    "clique_number",
    "GreedyModularityResult",
    "greedy_modularity",
]
