"""Future-work extensions sketched in the paper's Section VI.

* :mod:`~repro.extensions.hierarchy` — "explore the hierarchies and
  relations among [the communities]": the community relation graph
  (:func:`community_graph`) and recursive OCA agglomeration
  (:func:`hierarchical_oca`).
* :mod:`~repro.extensions.summarization` — "graph summarization for
  graphs containing overlapped communities": overlap-aware supernode
  summaries (:func:`summarize_graph`) scored by
  :func:`reconstruction_error`.

These go beyond the published evaluation.  ``benchmarks/bench_extensions.py``
checks each one as an extension, not as a reproduction: the hierarchy
must recover the flowers of a daisy tree, and the summary must beat a
single-blob summary.
"""

from .hierarchy import community_graph, hierarchical_oca
from .summarization import summarize_graph, reconstruction_error

__all__ = [
    "community_graph",
    "hierarchical_oca",
    "summarize_graph",
    "reconstruction_error",
]
