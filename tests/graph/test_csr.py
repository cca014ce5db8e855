"""Unit and property tests for the compiled CSR graph representation."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import GraphError, NodeNotFoundError
from repro.graph import (
    CompiledGraph,
    Graph,
    GraphBackend,
    attach_compiled,
    compile_graph,
)

from ..conftest import edge_lists


class TestCompileBasics:
    def test_empty_graph(self):
        compiled = compile_graph(Graph())
        assert compiled.number_of_nodes() == 0
        assert compiled.number_of_edges() == 0
        assert list(compiled.nodes()) == []

    def test_triangle_structure(self):
        compiled = compile_graph(Graph(edges=[(0, 1), (1, 2), (0, 2)]))
        assert compiled.number_of_nodes() == 3
        assert compiled.number_of_edges() == 3
        assert compiled.indptr.tolist() == [0, 2, 4, 6]
        assert compiled.degrees.tolist() == [2, 2, 2]
        assert compiled.neighbors(0).tolist() == [1, 2]
        assert compiled.neighbors(1).tolist() == [0, 2]

    def test_dtypes_are_int32(self):
        compiled = compile_graph(Graph(edges=[(0, 1), (1, 2)]))
        assert compiled.indptr.dtype == np.int32
        assert compiled.indices.dtype == np.int32
        assert compiled.degrees.dtype == np.int32

    def test_rows_are_sorted(self):
        g = Graph(edges=[(0, 5), (0, 3), (0, 1), (0, 4), (0, 2)])
        compiled = compile_graph(g)
        row = compiled.neighbors(0).tolist()
        assert row == sorted(row)

    def test_isolated_nodes_survive(self):
        g = Graph(edges=[(0, 1)], nodes=[2, 3])
        compiled = compile_graph(g)
        assert compiled.number_of_nodes() == 4
        assert compiled.degree(compiled.id_of(2)) == 0

    def test_has_edge_binary_search(self):
        compiled = compile_graph(Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)]))
        assert compiled.has_edge(0, 1)
        assert compiled.has_edge(3, 2)
        assert not compiled.has_edge(0, 3)

    def test_unknown_id_raises(self):
        compiled = compile_graph(Graph(edges=[(0, 1)]))
        with pytest.raises(NodeNotFoundError):
            compiled.neighbors(7)
        with pytest.raises(NodeNotFoundError):
            compiled.degree(-1)

    def test_satisfies_graph_backend_protocol(self):
        compiled = compile_graph(Graph(edges=[(0, 1)]))
        assert isinstance(compiled, GraphBackend)
        assert isinstance(Graph(edges=[(0, 1)]), GraphBackend)

    def test_compiled_arrays_are_immutable(self):
        compiled = compile_graph(Graph(edges=[(0, 1), (1, 2)]))
        for array in (compiled.indptr, compiled.indices, compiled.degrees):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            compiled.indices[0] = 5
        clone = pickle.loads(pickle.dumps(compiled))
        assert not clone.indices.flags.writeable

    def test_adjacency_matrix_cannot_corrupt_cache(self):
        from repro.graph import adjacency_with_index

        g = Graph(edges=[(0, 1), (1, 2)])
        matrix, _ = adjacency_with_index(g)
        # Whether scipy aliases the locked buffers (mutation raises) or
        # copied them (mutation lands in the copy), the compiled cache
        # must come through untouched.
        try:
            matrix.indices[0] = 2
        except ValueError:
            pass
        assert compile_graph(g).neighbors(0).tolist() == [1]


class TestLabelTranslation:
    def test_integer_insertion_order_is_identity(self):
        compiled = compile_graph(Graph(edges=[(0, 1), (1, 2)]))
        assert compiled.identity_labels
        assert compiled.labels == [0, 1, 2]
        assert compiled.labels_of([1, 2]) == [1, 2]

    def test_string_labels_roundtrip(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        compiled = compile_graph(g)
        assert not compiled.identity_labels
        assert compiled.labels == ["a", "b", "c"]
        assert compiled.id_of("c") == 2
        assert compiled.labels_of([1, 0]) == ["b", "a"]

    def test_out_of_order_integers_are_not_identity(self):
        g = Graph(edges=[(5, 0), (0, 3)])
        compiled = compile_graph(g)
        assert not compiled.identity_labels
        assert compiled.labels == [5, 0, 3]
        assert compiled.id_of(5) == 0

    def test_ids_match_node_index(self):
        g = Graph(edges=[("x", "y"), ("y", "z"), ("w", "x")])
        compiled = compile_graph(g)
        assert compiled.index == g.node_index()


class TestCaching:
    def test_compile_is_cached_on_graph(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        assert compile_graph(g) is compile_graph(g)

    def test_mutation_invalidates_cache(self):
        g = Graph(edges=[(0, 1)])
        first = compile_graph(g)
        g.add_edge(1, 2)
        second = compile_graph(g)
        assert second is not first
        assert second.number_of_nodes() == 3

    def test_edge_removal_invalidates_cache(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        first = compile_graph(g)
        g.remove_edge(0, 1)
        assert compile_graph(g) is not first
        assert compile_graph(g).number_of_edges() == 1

    def test_copy_does_not_share_cache(self):
        g = Graph(edges=[(0, 1)])
        compile_graph(g)
        clone = g.copy()
        clone.add_edge(1, 2)
        assert compile_graph(g).number_of_nodes() == 2
        assert compile_graph(clone).number_of_nodes() == 3

    def test_attach_compiled_validates_shape(self):
        g = Graph(edges=[(0, 1)])
        other = Graph(edges=[(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            attach_compiled(g, compile_graph(other))
        attach_compiled(other, compile_graph(other.copy()))


class TestPickling:
    def test_pickle_roundtrip(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        compiled = compile_graph(g)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone == compiled
        assert clone.number_of_edges() == 2
        assert clone.id_of("c") == compiled.id_of("c")

    def test_graph_pickle_drops_compiled_cache(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        compile_graph(g)
        blob_with_cache = pickle.dumps(g)
        blob_without = pickle.dumps(g.copy())
        assert len(blob_with_cache) == len(blob_without)
        clone = pickle.loads(blob_with_cache)
        assert clone == g


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists(max_nodes=14, max_edges=50))
def test_compile_roundtrips_random_edge_lists(edges):
    """compile_graph preserves n, m, degrees, and every neighbour set."""
    g = Graph(edges=edges)
    compiled = compile_graph(g)
    assert compiled.number_of_nodes() == g.number_of_nodes()
    assert compiled.number_of_edges() == g.number_of_edges()
    assert len(compiled.indices) == 2 * g.number_of_edges()
    index = g.node_index()
    labels = list(g.nodes())
    for node in g.nodes():
        node_id = compiled.id_of(node)
        assert node_id == index[node]
        assert compiled.degree(node_id) == g.degree(node)
        neighbour_labels = {labels[i] for i in compiled.neighbors(node_id)}
        assert neighbour_labels == g.neighbors(node)


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=30))
def test_compiled_edges_are_symmetric(edges):
    g = Graph(edges=edges)
    compiled = compile_graph(g)
    for u in compiled.nodes():
        for v in compiled.neighbors(u):
            assert compiled.has_edge(int(v), u)
