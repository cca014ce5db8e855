"""Property-based tests for the graph substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, connected_components
from repro.graph.statistics import density

from ..conftest import degrees, edge_lists, small_graphs


@given(edges=edge_lists())
def test_edge_count_matches_edges_iterator(edges):
    g = Graph(edges=edges)
    assert g.number_of_edges() == len(list(g.edges()))


@given(edges=edge_lists())
def test_handshake_lemma(edges):
    g = Graph(edges=edges)
    assert sum(degrees(g).values()) == 2 * g.number_of_edges()


@given(edges=edge_lists())
def test_adjacency_is_symmetric_relation(edges):
    g = Graph(edges=edges)
    for u, v in g.edges():
        assert g.has_edge(v, u)
        assert u in g.neighbors(v)
        assert v in g.neighbors(u)


@given(edges=edge_lists())
def test_edges_inside_full_node_set_is_m(edges):
    g = Graph(edges=edges)
    assert g.edges_inside(set(g.nodes())) == g.number_of_edges()


@given(edges=edge_lists())
def test_components_partition_nodes(edges):
    g = Graph(edges=edges)
    components = connected_components(g)
    union = set()
    total = 0
    for component in components:
        assert not (union & component)
        union |= component
        total += len(component)
    assert union == set(g.nodes())
    assert total == g.number_of_nodes()


@given(edges=edge_lists())
def test_copy_equals_original(edges):
    g = Graph(edges=edges)
    assert g.copy() == g


@given(edges=edge_lists())
def test_density_bounds(edges):
    g = Graph(edges=edges)
    assert 0.0 <= density(g) <= 1.0


@given(edges=edge_lists(), data=st.data())
def test_remove_then_add_edge_restores_graph(edges, data):
    g = Graph(edges=edges)
    all_edges = list(g.edges())
    if not all_edges:
        return
    u, v = data.draw(st.sampled_from(all_edges))
    g.remove_edge(u, v)
    assert not g.has_edge(u, v)
    g.add_edge(u, v)
    assert g == Graph(edges=edges)
