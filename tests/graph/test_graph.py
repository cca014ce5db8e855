"""Unit tests for the core Graph data structure."""

import pytest

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.number_of_nodes() == 0
        assert g.number_of_edges() == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_from_edges(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2

    def test_from_nodes_allows_isolates(self):
        g = Graph(nodes=[1, 2, 3])
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 0
        assert g.degree(2) == 0

    def test_nodes_preserve_insertion_order(self):
        g = Graph(nodes=["c", "a", "b"])
        assert list(g.nodes()) == ["c", "a", "b"]

    def test_hashable_node_labels(self):
        g = Graph(edges=[("alice", "bob"), (("tuple", 1), "bob")])
        assert g.has_edge("bob", "alice")
        assert g.degree(("tuple", 1)) == 1


class TestMutation:
    def test_add_edge_returns_whether_new(self):
        g = Graph()
        assert g.add_edge(1, 2) is True
        assert g.add_edge(2, 1) is False
        assert g.number_of_edges() == 1

    def test_add_edge_rejects_self_loop(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_add_edges_counts_new(self):
        g = Graph()
        assert g.add_edges([(0, 1), (1, 2), (0, 1)]) == 2

    def test_add_node_idempotent(self):
        g = Graph(edges=[(0, 1)])
        g.add_node(0)
        assert g.degree(0) == 1

    def test_remove_edge(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert not g.has_edge(0, 1)
        assert g.number_of_edges() == 1
        assert g.has_node(0)

    def test_remove_missing_edge_raises(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 2)


class TestQueries:
    def test_neighbors(self, triangle):
        assert triangle.neighbors(0) == {1, 2}

    def test_neighbors_of_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.neighbors(99)

    def test_degree(self, path5):
        assert path5.degree(0) == 1
        assert path5.degree(2) == 2

    def test_edges_yields_each_edge_once(self, k5):
        edges = list(k5.edges())
        assert len(edges) == 10
        assert len({frozenset(e) for e in edges}) == 10

    def test_edges_inside(self, k5):
        assert k5.edges_inside({0, 1, 2}) == 3
        assert k5.edges_inside({0}) == 0
        assert k5.edges_inside(set()) == 0
        assert k5.edges_inside({0, 1, 99}) == 1  # absent nodes ignored

    def test_contains_and_len_and_iter(self, triangle):
        assert 0 in triangle
        assert 99 not in triangle
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]


class TestDerived:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.add_edge(0, 3)
        assert not triangle.has_node(3)
        assert clone.has_edge(0, 3)

    def test_equality_is_structural(self):
        a = Graph(edges=[(0, 1)])
        b = Graph(edges=[(0, 1)])
        assert a == b
        b.add_node(7)
        assert a != b

    def test_node_index_follows_insertion(self):
        g = Graph(nodes=["x", "y"])
        assert g.node_index() == {"x": 0, "y": 1}

    def test_repr_mentions_counts(self, triangle):
        assert "n=3" in repr(triangle)
        assert "m=3" in repr(triangle)
