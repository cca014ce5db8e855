"""Unit tests for Bron–Kerbosch maximal clique enumeration."""

from hypothesis import given, settings

from repro.baselines import clique_number, maximal_cliques
from repro.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.graph import Graph

from ..conftest import edge_lists


def cliques_set(graph):
    return set(maximal_cliques(graph))


def test_complete_graph_single_clique():
    assert cliques_set(complete_graph(5)) == {frozenset(range(5))}


def test_triangle_with_tail():
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    assert cliques_set(g) == {frozenset({0, 1, 2}), frozenset({2, 3})}


def test_cycle_cliques_are_edges():
    cliques = cliques_set(cycle_graph(5))
    assert all(len(c) == 2 for c in cliques)
    assert len(cliques) == 5


def test_star_cliques():
    cliques = cliques_set(star_graph(4))
    assert len(cliques) == 4
    assert all(0 in c and len(c) == 2 for c in cliques)


def test_isolated_nodes_are_cliques():
    g = Graph(nodes=[1, 2])
    assert cliques_set(g) == {frozenset({1}), frozenset({2})}


def test_empty_graph_no_cliques():
    assert cliques_set(Graph()) == set()


def test_two_overlapping_triangles():
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    assert cliques_set(g) == {frozenset({0, 1, 2}), frozenset({1, 2, 3})}


def test_clique_number():
    assert clique_number(complete_graph(6)) == 6
    assert clique_number(cycle_graph(6)) == 2
    assert clique_number(Graph()) == 0


@settings(max_examples=40)
@given(edges=edge_lists(max_nodes=9, max_edges=22))
def test_cliques_are_maximal_cliques(edges):
    """Every reported set is a clique; no reported set extends another;
    every edge is inside some reported clique."""
    g = Graph(edges=edges)
    cliques = list(maximal_cliques(g))
    for clique in cliques:
        members = sorted(clique, key=str)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                assert g.has_edge(u, v)
        # Maximality: no node outside is adjacent to every member.
        for node in g.nodes():
            if node in clique:
                continue
            assert not clique <= g.neighbors(node) | {node}
    for u, v in g.edges():
        assert any(u in c and v in c for c in cliques)
    # No duplicates.
    assert len(cliques) == len(set(cliques))
