"""Sparse-matrix views of graphs.

The spectral machinery in :mod:`repro.core.spectral` needs fast
matrix-vector products with the adjacency matrix; SciPy's CSR format
provides them.  The conversion fixes a node ordering (insertion order,
the same one :meth:`repro.graph.Graph.node_index` reports) so callers can
translate eigenvector entries back to nodes.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from .csr import compile_graph
from .graph import Graph, Node

__all__ = ["adjacency_with_index"]


def adjacency_with_index(graph: Graph) -> Tuple[sp.csr_matrix, Dict[Node, int]]:
    """The CSR adjacency matrix together with the node index used.

    Row/column ``i`` corresponds to the ``i``-th node in insertion order.
    Built straight from the compiled CSR form (cached on the graph):
    :func:`~repro.graph.csr.compile_graph` already stores per-row-sorted
    neighbour ids, which is exactly SciPy's canonical layout, so the
    matrix here is structurally identical to the old COO round-trip —
    including matvec summation order, which keeps spectral results
    bit-stable — without materialising edge lists.
    """
    compiled = compile_graph(graph)
    n = compiled.number_of_nodes()
    data = np.ones(len(compiled.indices), dtype=np.float64)
    matrix = sp.csr_matrix(
        (data, compiled.indices, compiled.indptr), shape=(n, n)
    )
    # Fresh dict: node_index() always returned an owned copy, and the
    # compiled cache must not be mutable through this return value.
    return matrix, dict(compiled.index)
