"""Unit tests for the SciPy adjacency matrix."""

import numpy as np
import pytest

from repro.graph import Graph, adjacency_with_index
from repro.generators import cycle_graph


def test_adjacency_is_symmetric(k5):
    a = adjacency_with_index(k5)[0].toarray()
    assert np.array_equal(a, a.T)


def test_adjacency_row_sums_are_degrees(path5):
    a, index = adjacency_with_index(path5)
    degrees = np.asarray(a.sum(axis=1)).ravel()
    for node in path5.nodes():
        assert degrees[index[node]] == path5.degree(node)


def test_adjacency_zero_diagonal(k5):
    a = adjacency_with_index(k5)[0].toarray()
    assert np.all(np.diag(a) == 0)


def test_adjacency_with_index_consistent(triangle):
    matrix, index = adjacency_with_index(triangle)
    dense = matrix.toarray()
    for u, v in triangle.edges():
        assert dense[index[u], index[v]] == 1.0
        assert dense[index[v], index[u]] == 1.0


def test_cycle_adjacency_spectrum():
    # C4 eigenvalues are 2, 0, 0, -2.
    a = adjacency_with_index(cycle_graph(4))[0].toarray()
    eigenvalues = sorted(np.linalg.eigvalsh(a))
    assert eigenvalues == pytest.approx([-2, 0, 0, 2], abs=1e-9)


def test_shape_dtype_and_nonzeros(path5):
    matrix, _ = adjacency_with_index(path5)
    assert matrix.shape == (5, 5)
    assert matrix.dtype == np.float64
    assert matrix.nnz == 2 * path5.number_of_edges()


def test_empty_graph():
    matrix, index = adjacency_with_index(Graph())
    assert matrix.shape == (0, 0)
    assert index == {}


def test_isolated_node_has_zero_row():
    g = Graph(edges=[(0, 1)], nodes=[5])
    matrix, index = adjacency_with_index(g)
    assert matrix.getrow(index[5]).nnz == 0


def test_index_follows_insertion_order():
    g = Graph(edges=[("c", "a"), ("a", "b")])
    _, index = adjacency_with_index(g)
    assert index == {"c": 0, "a": 1, "b": 2}
    assert index == g.node_index()


def test_index_is_an_owned_copy(triangle):
    _, index = adjacency_with_index(triangle)
    index.clear()
    assert adjacency_with_index(triangle)[1] == triangle.node_index()


def test_matrix_tracks_graph_mutation():
    g = cycle_graph(5)
    before = adjacency_with_index(g)[0].nnz
    g.add_edge(0, 2)
    matrix, index = adjacency_with_index(g)
    assert matrix.nnz == before + 2
    assert matrix[index[0], index[2]] == 1.0
