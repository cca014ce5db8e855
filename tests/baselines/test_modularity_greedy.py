"""Unit tests for the Newman fast-greedy partition baseline.

Every graph here has identity labels, so the kernel's dense-id
partition is in the graph's own labels.  The heap kernel is checked
against :func:`scan_oracle`, the canonical rescan-every-pair CNM.
"""

import math

import pytest
from hypothesis import given, settings

from repro.baselines import greedy_modularity
from repro.communities import theta
from repro.errors import AlgorithmError
from repro.generators import (
    LFRParams,
    complete_graph,
    lfr_graph,
    ring_of_cliques,
    two_cliques_bridged,
)
from repro.graph import Graph, compile_graph

from ..conftest import edge_lists, modularity
from ..detectors.test_goldens import FAMILIES, _graph


def scan_oracle(graph):
    """CNM by rescanning every connected pair per merge, O(merges * m).

    Same rule as the kernel: the largest ``2m e_ij - D_i D_j`` wins, a
    tie goes to the lowest ``(i, j)``, the lower id survives, and the
    run stops when no key is positive.  Returns ``(blocks, merges, Q)``.
    """
    m = graph.number_of_edges()
    members = {i: [i] for i in range(graph.number_of_nodes())}
    e = {i: dict.fromkeys(graph.neighbors(i).tolist(), 1) for i in members}
    d = {i: graph.degree(i) for i in members}
    inner = dict.fromkeys(members, 0)
    merges = 0
    while True:
        key, i, j = max(
            (
                (2 * m * count - d[i] * d[j], -i, -j)
                for i, row in e.items()
                for j, count in row.items()
                if i < j
            ),
            default=(0, 0, 0),
        )
        if key <= 0:
            break
        i, j = -i, -j
        members[i] += members.pop(j)
        row_j = e.pop(j)
        inner[i] += inner.pop(j) + row_j.pop(i)
        del e[i][j]
        for k, count in row_j.items():
            del e[k][j]
            e[k][i] = e[i][k] = e[i].get(k, 0) + count
        d[i] += d.pop(j)
        merges += 1
    q = sum(4 * m * inner[c] - d[c] * d[c] for c in members) / (4 * m * m)
    return sorted(sorted(block) for block in members.values()), merges, q


def assert_matches_oracle(compiled):
    result = greedy_modularity(compiled)
    blocks = sorted(sorted(block) for block in result.partition)
    assert (blocks, result.merges, result.modularity) == scan_oracle(compiled)


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


@settings(max_examples=200, deadline=None)
@given(edges=edge_lists(max_nodes=12, max_edges=40))
def test_heap_kernel_matches_the_scan_oracle(edges):
    compiled = compile_graph(Graph(edges=edges))
    if compiled.number_of_edges():
        assert_matches_oracle(compiled)


@pytest.mark.parametrize("family", FAMILIES)
def test_heap_kernel_matches_the_scan_oracle_on_golden_families(family):
    assert_matches_oracle(compile_graph(_graph(family)))


@pytest.mark.parametrize(
    "graph",
    [complete_graph(7), two_cliques_bridged(6, 2)[0]],
    ids=["complete", "bridged"],
)
def test_heap_kernel_breaks_symmetric_ties_like_the_oracle(graph):
    """Every first merge of a clique ties; the lowest pair must win."""
    assert_matches_oracle(compile_graph(graph))


def test_heap_pops_stay_within_m_log_n():
    """The work count, not wall time: a rescan per merge would cost
    about merges * m pair visits; the heap stays within m * log2(n)."""
    params = LFRParams(
        n=2000, mu=0.3, average_degree=40, max_degree=100,
        min_community=60, max_community=120,
    )
    compiled = compile_graph(lfr_graph(params, seed=3).graph)
    n, m = compiled.number_of_nodes(), compiled.number_of_edges()
    result = greedy_modularity(compiled)
    assert result.merges > 0
    assert result.heap_pops <= m * math.log2(n)
