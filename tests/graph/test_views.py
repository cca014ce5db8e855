"""Unit tests for the read-only SubgraphView."""

import pytest

from repro.errors import GraphError, NodeNotFoundError
from repro.graph import Graph, SubgraphView, induced_subgraph
from repro.generators import complete_graph, path_graph, ring_of_cliques


@pytest.fixture
def view(k5):
    return SubgraphView(k5, {0, 1, 2})


class TestConstruction:
    def test_missing_nodes_rejected(self, k5):
        with pytest.raises(NodeNotFoundError):
            SubgraphView(k5, {0, 99})

    def test_empty_view(self, k5):
        view = SubgraphView(k5, set())
        assert view.number_of_nodes() == 0
        assert view.number_of_edges() == 0
        assert list(view.edges()) == []


class TestQueries:
    def test_counts(self, view):
        assert view.number_of_nodes() == 3
        assert view.number_of_edges() == 3

    def test_membership(self, view):
        assert view.has_node(0)
        assert not view.has_node(3)  # in parent, not in view
        assert 0 in view and 3 not in view

    def test_edges_filtered(self, view):
        assert view.has_edge(0, 1)
        assert not view.has_edge(0, 3)

    def test_neighbors_restricted(self, view):
        assert view.neighbors(0) == {1, 2}

    def test_neighbors_outside_view_raise(self, view):
        with pytest.raises(NodeNotFoundError):
            view.neighbors(3)

    def test_degrees(self, view):
        assert view.degree(0) == 2
        assert view.degrees() == {0: 2, 1: 2, 2: 2}

    def test_edges_each_once(self, view):
        edges = list(view.edges())
        assert len(edges) == 3
        assert len({frozenset(e) for e in edges}) == 3

    def test_edges_inside(self, view):
        assert view.edges_inside({0, 1}) == 1
        assert view.edges_inside({0, 1, 3}) == 1  # 3 filtered out

    def test_boundary_degree(self, view):
        assert view.boundary_degree(0, {1, 2}) == 2
        assert view.boundary_degree(0, {3, 4}) == 0

    def test_len_and_iter(self, view):
        assert len(view) == 3
        assert sorted(view) == [0, 1, 2]


class TestEquivalenceWithCopy:
    @pytest.mark.parametrize("subset", [{0, 1}, {0, 2, 4}, set()])
    def test_matches_induced_subgraph(self, subset):
        g, _ = ring_of_cliques(3, 5)
        view = SubgraphView(g, subset)
        copy = induced_subgraph(g, subset)
        assert view.number_of_nodes() == copy.number_of_nodes()
        assert view.number_of_edges() == copy.number_of_edges()
        assert {frozenset(e) for e in view.edges()} == {
            frozenset(e) for e in copy.edges()
        }

    def test_materialize_equals_induced(self):
        g = complete_graph(6)
        view = SubgraphView(g, {0, 1, 2, 3})
        assert view.materialize() == induced_subgraph(g, {0, 1, 2, 3})


class TestLiveness:
    def test_view_reflects_parent_mutation(self):
        g = path_graph(4)
        view = SubgraphView(g, {0, 1, 2})
        assert view.number_of_edges() == 2
        g.add_edge(0, 2)
        assert view.number_of_edges() == 3

    def test_materialized_copy_is_independent(self):
        g = path_graph(4)
        view = SubgraphView(g, {0, 1, 2})
        copy = view.materialize()
        g.add_edge(0, 2)
        assert copy.number_of_edges() == 2


class TestReadOnly:
    @pytest.mark.parametrize(
        "method,args",
        [
            ("add_node", (9,)),
            ("add_edge", (0, 9)),
            ("remove_node", (0,)),
            ("remove_edge", (0, 1)),
        ],
    )
    def test_mutation_refused(self, view, method, args):
        with pytest.raises(GraphError):
            getattr(view, method)(*args)


class TestAlgorithmsOnViews:
    def test_growth_runs_on_a_view(self):
        """A view compiles like any read-only graph, so it can host the
        greedy search."""
        from repro.core import DirectedLaplacianFitness, grow_community
        from repro.graph import compile_graph

        g, truth = ring_of_cliques(3, 5)
        view = SubgraphView(g, set(truth[0]) | set(truth[1]))
        compiled = compile_graph(view)
        start = compiled.id_of(0)
        result = grow_community(compiled, [start], DirectedLaplacianFitness(c=0.4))
        assert set(compiled.labels_of(result.members)) == truth[0]

    def test_statistics_on_views(self):
        from repro.graph import average_degree, density

        g = complete_graph(6)
        view = SubgraphView(g, {0, 1, 2})
        assert density(view) == pytest.approx(1.0)
        assert average_degree(view) == pytest.approx(2.0)
