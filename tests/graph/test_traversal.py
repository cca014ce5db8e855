"""Unit tests for connected components."""

import time

import pytest
from hypothesis import given

from repro.graph import Graph, compile_graph, connected_components
from repro.generators import path_graph, ring_of_cliques

from ..conftest import edge_lists


@pytest.fixture
def two_components():
    return Graph(edges=[(0, 1), (1, 2), (10, 11)])


def test_connected_components_sorted_by_size(two_components):
    components = connected_components(two_components)
    assert [len(c) for c in components] == [3, 2]


def test_connected_components_empty_graph():
    assert connected_components(Graph()) == []


def test_isolated_nodes_are_singleton_components():
    g = Graph(edges=[(0, 1)], nodes=[7, 8])
    assert connected_components(g) == [{0, 1}, {7}, {8}]


def test_string_labels():
    g = Graph(edges=[("a", "b"), ("b", "c"), ("x", "y")])
    assert connected_components(g) == [{"a", "b", "c"}, {"x", "y"}]


def test_removing_a_bridge_splits_the_component():
    g = path_graph(6)
    assert len(connected_components(g)) == 1
    g.remove_edge(2, 3)
    assert connected_components(g) == [{0, 1, 2}, {3, 4, 5}]


def test_ring_of_cliques_is_one_component():
    g, _ = ring_of_cliques(5, 4)
    assert connected_components(g) == [set(g.nodes())]


def test_compiled_graph_components_are_dense_ids():
    g = Graph(edges=[("a", "b"), ("x", "y"), ("y", "z")])
    compiled = compile_graph(g)
    components = connected_components(compiled)
    assert [set(compiled.labels_of(c)) for c in components] == [
        {"x", "y", "z"},
        {"a", "b"},
    ]


@given(edges=edge_lists())
def test_no_edge_crosses_components(edges):
    g = Graph(edges=edges)
    component_of = {}
    for index, component in enumerate(connected_components(g)):
        for node in component:
            component_of[node] = index
    for u, v in g.edges():
        assert component_of[u] == component_of[v]


@given(edges=edge_lists())
def test_each_component_is_connected(edges):
    g = Graph(edges=edges)
    for component in connected_components(g):
        start = next(iter(component))
        reached, stack = {start}, [start]
        while stack:
            for neighbour in g.neighbors(stack.pop()):
                if neighbour not in reached:
                    reached.add(neighbour)
                    stack.append(neighbour)
        assert reached == component


@given(edges=edge_lists())
def test_components_sorted_largest_first(edges):
    sizes = [len(c) for c in connected_components(Graph(edges=edges))]
    assert sizes == sorted(sizes, reverse=True)


def test_equal_sizes_keep_the_order_of_their_first_node():
    g = Graph(edges=[(5, 6), (0, 1), (2, 3), (3, 4)], nodes=[9])
    assert connected_components(g) == [{2, 3, 4}, {5, 6}, {0, 1}, {9}]


def test_many_components_take_linear_time():
    # 100k two-node components plus isolated nodes.  Restarting the
    # search with next(iter(remaining)) after each component scanned the
    # set's deleted slots again and again, and took 9–14 s on a 2-core host.
    pairs = 100_000
    g = Graph(
        edges=[(2 * i, 2 * i + 1) for i in range(pairs)],
        nodes=range(2 * pairs, 2 * pairs + 1_000),
    )
    start = time.perf_counter()
    components = connected_components(g)
    elapsed = time.perf_counter() - start
    assert len(components) == pairs + 1_000
    assert components[:pairs] == [{2 * i, 2 * i + 1} for i in range(pairs)]
    assert components[pairs:] == [{v} for v in range(2 * pairs, 2 * pairs + 1_000)]
    assert elapsed < 2.0, f"connected_components took {elapsed:.2f} s"
