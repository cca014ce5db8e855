"""Unit tests for Bron–Kerbosch maximal clique enumeration.

The bitset kernel is checked against :func:`~tests.conftest.set_bron_kerbosch`,
the set-based enumeration it replaced, and against networkx.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import clique_number, maximal_cliques
from repro.baselines.cliques import clique_ids
from repro.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.graph import Graph, compile_graph

from ..conftest import edge_lists, set_bron_kerbosch, to_networkx
from ..detectors.test_goldens import FAMILIES, LABELS, _graph, _labelled


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


def assert_matches_oracle(graph):
    """Dict and compiled input give the oracle's cliques, each once."""
    expected = set(set_bron_kerbosch(graph))
    for form in (graph, compile_graph(graph)):
        cliques = list(maximal_cliques(form))
        assert len(cliques) == len(set(cliques))
        assert set(cliques) == expected
    compiled = compile_graph(graph)
    ids = list(clique_ids(compiled.as_identity()))
    assert len(ids) == len(set(map(frozenset, ids)))
    assert {frozenset(compiled.labels_of(c)) for c in ids} == expected


@settings(max_examples=80, deadline=None)
@given(
    edges=edge_lists(max_nodes=12, max_edges=45),
    isolated=st.integers(min_value=0, max_value=3),
    as_str=st.booleans(),
)
def test_matches_set_oracle(edges, isolated, as_str):
    """Random graphs, dense ones included, with isolated nodes and
    non-identity labels: the same clique set as the set-based oracle."""
    g = Graph(edges=edges)
    for extra in range(isolated):
        g.add_node(100 + extra)
    if as_str:
        g = _labelled(g, "str")
    assert_matches_oracle(g)


def test_empty_graph_both_forms():
    assert_matches_oracle(Graph())
    assert list(clique_ids(compile_graph(Graph()))) == []


def test_isolated_nodes_only():
    g = Graph(nodes=["a", "b", "c"])
    assert_matches_oracle(g)
    assert set(maximal_cliques(compile_graph(g))) == {
        frozenset({"a"}), frozenset({"b"}), frozenset({"c"})
    }


def test_neighbourhoods_wider_than_a_machine_word():
    """A hub with 120 neighbours and a dense graph on 90 nodes: the
    local bitsets run past 64 bits."""
    hub = erdos_renyi(120, 0.08, seed=3)
    for node in list(hub.nodes()):
        hub.add_edge("hub", node)
    assert_matches_oracle(hub)
    assert_matches_oracle(erdos_renyi(90, 0.35, seed=4))
    assert set(maximal_cliques(complete_graph(70))) == {frozenset(range(70))}


@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("family", FAMILIES)
def test_agrees_with_networkx_on_golden_families(family, labels):
    networkx = pytest.importorskip("networkx")
    g = _labelled(_graph(family), labels)
    theirs = {frozenset(c) for c in networkx.find_cliques(to_networkx(g))}
    assert set(maximal_cliques(g)) == theirs
    assert set(maximal_cliques(compile_graph(g))) == theirs


def test_popcount_fallback_gives_the_same_enumeration(monkeypatch):
    """Python 3.9 has no ``int.bit_count``; the ``bin(x).count("1")``
    fallback picks the same pivots, so the cliques come out in the same
    order."""
    import repro.baselines.cliques as cliques

    compiled = compile_graph(_graph("lfr_overlapping"))
    native = list(clique_ids(compiled))
    monkeypatch.setattr(cliques, "_popcount", lambda x: bin(x).count("1"))
    assert list(clique_ids(compiled)) == native
