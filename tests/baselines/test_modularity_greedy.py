"""Unit tests for the Newman fast-greedy partition baseline.

Every graph here has identity labels, so the kernel's dense-id
partition is in the graph's own labels.
"""

import pytest

from repro.baselines import greedy_modularity
from repro.communities import modularity, theta
from repro.errors import AlgorithmError
from repro.generators import complete_graph, ring_of_cliques, two_cliques_bridged
from repro.graph import Graph, compile_graph


def test_edgeless_graph_raises():
    with pytest.raises(AlgorithmError):
        greedy_modularity(compile_graph(Graph(nodes=[0, 1])))


def test_ring_of_cliques_recovered():
    g, truth = ring_of_cliques(5, 6)
    result = greedy_modularity(compile_graph(g))
    assert theta(truth, result.partition) == pytest.approx(1.0)


def test_reported_modularity_matches_metric():
    g, _ = ring_of_cliques(4, 5)
    result = greedy_modularity(compile_graph(g))
    assert result.modularity == pytest.approx(modularity(g, result.partition))


def test_partition_is_disjoint_and_exhaustive():
    g, _ = ring_of_cliques(4, 5)
    result = greedy_modularity(compile_graph(g))
    assert result.partition.covered_nodes() == set(g.nodes())
    assert not result.partition.overlapping_nodes()


def test_complete_graph_single_block():
    result = greedy_modularity(compile_graph(complete_graph(6)))
    assert len(result.partition) == 1


def test_cannot_express_overlap():
    """The motivating limitation: a partition covers the shared nodes in
    exactly one of the two overlapping cliques, capping Theta below 1."""
    g, truth = two_cliques_bridged(6, 2)
    result = greedy_modularity(compile_graph(g))
    assert theta(truth, result.partition) < 1.0


def test_merge_count_bounded():
    g, _ = ring_of_cliques(3, 4)
    result = greedy_modularity(compile_graph(g))
    assert 0 < result.merges < g.number_of_nodes()
