"""Graph substrate: the data structure and the few helpers the system uses.

This subpackage is the Python counterpart of the "C++ structures created
ad hoc for this problem" that the paper's experiments ran on.  Everything
else in :mod:`repro` builds on :class:`Graph` and its compiled CSR form:

* :class:`Graph`, :class:`CompiledGraph` and :func:`compile_graph`, with
  the read-only :class:`GraphBackend` protocol both forms satisfy;
* shared-memory shipping of the compiled arrays (:mod:`.shm`);
* edge-list IO, the seed neighbourhood OCA starts from, connected
  components, the Table I summary and the SciPy adjacency matrix the
  spectral ``c`` is solved on.
"""

from .graph import Graph
from .csr import GraphBackend, CompiledGraph, compile_graph, attach_compiled
from .shm import (
    ShmGraphDescriptor,
    SharedGraphSegments,
    attach_shared,
    export_shared,
    shm_available,
)
from .subgraph import random_neighborhood_subset
from .traversal import connected_components
from .statistics import summarize, average_degree
from .io import read_edge_list, read_edge_list_compiled, write_edge_list
from .matrices import adjacency_with_index

__all__ = [
    "Graph",
    "GraphBackend",
    "CompiledGraph",
    "compile_graph",
    "attach_compiled",
    "ShmGraphDescriptor",
    "SharedGraphSegments",
    "attach_shared",
    "export_shared",
    "shm_available",
    "random_neighborhood_subset",
    "connected_components",
    "summarize",
    "average_degree",
    "read_edge_list",
    "read_edge_list_compiled",
    "write_edge_list",
    "adjacency_with_index",
]
