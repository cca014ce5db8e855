"""Unit tests for graph statistics."""

import dataclasses

import pytest

from repro.graph import Graph, average_degree, summarize
from repro.graph.statistics import density
from repro.generators import complete_graph, cycle_graph, path_graph, star_graph


def test_density_complete_graph_is_one():
    assert density(complete_graph(6)) == pytest.approx(1.0)


def test_density_empty_and_tiny():
    assert density(Graph()) == 0.0
    assert density(Graph(nodes=[1])) == 0.0


def test_average_degree_cycle():
    assert average_degree(cycle_graph(7)) == pytest.approx(2.0)


def test_average_degree_empty():
    assert average_degree(Graph()) == 0.0


def test_summarize_fields(k5):
    summary = summarize(k5)
    assert summary.nodes == 5
    assert summary.edges == 10
    assert summary.min_degree == summary.max_degree == 4
    assert summary.components == 1
    assert summary.largest_component == 5
    assert summary.average_degree == pytest.approx(4.0)


def test_summarize_disconnected():
    g = Graph(edges=[(0, 1)], nodes=[5])
    summary = summarize(g)
    assert summary.components == 2
    assert summary.min_degree == 0


def test_summary_as_row_keys(k5):
    row = summarize(k5).as_row()
    assert set(row) == {
        "nodes", "edges", "min_degree", "max_degree",
        "average_degree", "density", "components", "largest_component",
    }


@pytest.mark.parametrize(
    "graph, expected",
    [
        (path_graph(5), (5, 4, 1, 2, 1.6, 0.4, 1, 5)),
        (star_graph(6), (7, 6, 1, 6, 12 / 7, 2 / 7, 1, 7)),
        (cycle_graph(7), (7, 7, 2, 2, 2.0, 1 / 3, 1, 7)),
        (complete_graph(4), (4, 6, 3, 3, 3.0, 1.0, 1, 4)),
        (Graph(), (0, 0, 0, 0, 0.0, 0.0, 0, 0)),
        (Graph(nodes=[1, 2, 3]), (3, 0, 0, 0, 0.0, 0.0, 3, 1)),
        (Graph(edges=[(0, 1), (1, 2), (5, 6)]), (5, 3, 1, 2, 1.2, 0.3, 2, 3)),
    ],
    ids=["path5", "star6", "cycle7", "k4", "empty", "isolates", "two-parts"],
)
def test_summarize_families(graph, expected):
    summary = summarize(graph)
    nodes, edges, min_degree, max_degree, mean, dens, components, largest = expected
    assert (summary.nodes, summary.edges) == (nodes, edges)
    assert (summary.min_degree, summary.max_degree) == (min_degree, max_degree)
    assert summary.average_degree == pytest.approx(mean)
    assert summary.density == pytest.approx(dens)
    assert (summary.components, summary.largest_component) == (components, largest)


def test_summary_as_row_rounds():
    row = summarize(star_graph(6)).as_row()
    assert row["average_degree"] == 1.714
    assert row["density"] == 0.285714


def test_summary_is_frozen(k5):
    summary = summarize(k5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        summary.nodes = 0


def test_isolated_nodes_lower_average_degree():
    g = complete_graph(4)
    before = average_degree(g)
    g.add_node(99)
    assert average_degree(g) == pytest.approx(before * 4 / 5)


def test_density_of_path():
    # n - 1 edges out of n (n - 1) / 2 pairs.
    assert density(path_graph(10)) == pytest.approx(2 / 10)
