"""Graph substrate: the data structure and its supporting toolkit.

This subpackage is the Python counterpart of the "C++ structures created
ad hoc for this problem" that the paper's experiments ran on.  Everything
else in :mod:`repro` builds on :class:`Graph`.
"""

from .graph import Graph, Node, Edge
from .csr import GraphBackend, CompiledGraph, compile_graph, attach_compiled
from .shm import (
    ShmGraphDescriptor,
    SharedGraphSegments,
    attach_shared,
    export_shared,
    shm_available,
)
from .builder import GraphBuilder, BuildReport
from .subgraph import (
    induced_subgraph,
    ego_network,
    neighborhood,
    random_neighborhood_subset,
)
from .views import SubgraphView
from .traversal import (
    bfs_order,
    bfs_distances,
    dfs_order,
    connected_components,
    largest_component,
    is_connected,
    shortest_path,
)
from .statistics import (
    GraphSummary,
    summarize,
    density,
    average_degree,
    degree_histogram,
    local_clustering,
    average_clustering,
    triangle_count,
)
from .io import (
    read_edge_list,
    read_edge_list_compiled,
    write_edge_list,
    read_adjacency_list,
    write_adjacency_list,
    read_metis,
    write_metis,
)
from .matrices import adjacency_matrix, laplacian_matrix, adjacency_with_index
from .convert import (
    from_networkx,
    to_networkx,
    from_scipy_sparse,
    to_scipy_sparse,
    from_edge_array,
)

__all__ = [
    "Graph",
    "Node",
    "Edge",
    "GraphBackend",
    "CompiledGraph",
    "compile_graph",
    "attach_compiled",
    "ShmGraphDescriptor",
    "SharedGraphSegments",
    "attach_shared",
    "export_shared",
    "shm_available",
    "GraphBuilder",
    "BuildReport",
    "induced_subgraph",
    "ego_network",
    "neighborhood",
    "random_neighborhood_subset",
    "SubgraphView",
    "bfs_order",
    "bfs_distances",
    "dfs_order",
    "connected_components",
    "largest_component",
    "is_connected",
    "shortest_path",
    "GraphSummary",
    "summarize",
    "density",
    "average_degree",
    "degree_histogram",
    "local_clustering",
    "average_clustering",
    "triangle_count",
    "read_edge_list",
    "write_edge_list",
    "read_adjacency_list",
    "write_adjacency_list",
    "read_metis",
    "write_metis",
    "adjacency_matrix",
    "laplacian_matrix",
    "adjacency_with_index",
    "from_networkx",
    "to_networkx",
    "from_scipy_sparse",
    "to_scipy_sparse",
    "from_edge_array",
]
