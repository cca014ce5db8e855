"""Unit tests for the CFinder / clique percolation baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cliques import clique_ids
from repro.baselines.cpm import _percolate_ids
from repro.communities import Cover
from repro.errors import ConfigurationError
from repro.generators import complete_graph, cycle_graph, ring_of_cliques
from repro.graph import Graph, compile_graph

from ..conftest import (
    detect,
    edge_lists,
    pairwise_percolation,
    set_bron_kerbosch,
)


def cpm(graph, k):
    return detect("cpm", graph, k=k)


def test_single_clique_is_one_community():
    result = cpm(complete_graph(5), k=3)
    assert result.cover == Cover([set(range(5))])
    assert result.stats["maximal_cliques"] == 1


def test_only_cliques_of_at_least_k_nodes_percolate():
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    result = cpm(g, k=3)
    assert result.cover == Cover([{0, 1, 2}])
    assert result.stats["maximal_cliques"] == 1


def test_ring_of_cliques_separated():
    g, truth = ring_of_cliques(4, 5)
    result = cpm(g, k=3)
    assert result.cover == truth


def test_overlapping_chain_of_triangles():
    # Two triangles sharing an edge percolate into one community at k=3.
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    result = cpm(g, k=3)
    assert result.cover == Cover([{0, 1, 2, 3}])


def test_disjoint_triangles_stay_separate():
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)])
    result = cpm(g, k=3)
    assert result.cover == Cover([{0, 1, 2}, {10, 11, 12}])


def test_triangle_free_graph_has_no_k3_communities():
    result = cpm(cycle_graph(6), k=3)
    assert len(result.cover) == 0


def test_k2_degenerates_to_components():
    g = Graph(edges=[(0, 1), (1, 2), (10, 11)])
    result = cpm(g, k=2)
    assert result.cover == Cover([{0, 1, 2}, {10, 11}])


def test_k4_stricter_than_k3():
    g, _ = ring_of_cliques(3, 4)  # bridges create no K4
    at3 = cpm(g, k=3).cover
    at4 = cpm(g, k=4).cover
    assert len(at4) == 3
    assert at3 == at4  # cliques themselves are K4s


@pytest.mark.parametrize("k", [3, 4])
def test_subset_grouping_matches_pairwise_overlap(k):
    """The (k-1)-subset grouping finds exactly the clique overlaps the
    published pairwise comparison finds, on a graph with many of them."""
    from repro.generators import LFRParams, lfr_graph

    params = LFRParams(
        n=150, average_degree=12, max_degree=30,
        min_community=10, max_community=30, on=30, om=2,
    )
    g = lfr_graph(params, seed=4).graph
    result = cpm(g, k=k)
    assert len(result.cover) > 1
    assert result.cover == pairwise_percolation(g, k)


def test_k_validated():
    with pytest.raises(ConfigurationError):
        cpm(Graph(), k=1)


def test_cfinder_detector_runs_k3():
    g, truth = ring_of_cliques(4, 5)
    result = detect("cfinder", g)
    assert result.cover == truth
    assert result.stats["k"] == 3


def test_overlap_nodes_in_both_communities():
    from repro.generators import two_cliques_bridged

    g, truth = two_cliques_bridged(6, 2)
    cover = detect("cfinder", g).cover
    # Shared nodes belong to one percolation community at k=3 (the two
    # cliques chain through the shared pair), or two if separated: either
    # way every node is covered.
    assert cover.covered_nodes() == set(g.nodes())


def test_elapsed_and_repr():
    result = cpm(complete_graph(4), k=3)
    assert result.elapsed_seconds >= 0.0
    assert "DetectionResult" in repr(result)


@settings(max_examples=80, deadline=None)
@given(edges=edge_lists(max_nodes=12, max_edges=45), k=st.sampled_from([2, 3, 4]))
def test_percolate_ids_matches_oracle(edges, k):
    """Communities and clique count of the kernel against the set-based
    enumeration plus the published pairwise clique comparison."""
    g = Graph(edges=edges)
    compiled = compile_graph(g)
    communities, count = _percolate_ids(compiled.as_identity(), k=k)
    assert count == sum(1 for c in set_bron_kerbosch(g) if len(c) >= k)
    labelled = Cover([compiled.labels_of(c) for c in communities])
    assert labelled == pairwise_percolation(g, k)
    assert len(communities) == len(labelled)


def test_community_order_is_by_sorted_members():
    """Communities come in ascending order of their sorted member lists,
    not in enumeration order.  Low degrees are visited first, so the
    triangles at 10 and 20 are enumerated before the K5 on 0..4; the
    two triangles at 10 tie on their smallest member."""
    g = Graph(nodes=range(23))
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(10, 11), (11, 12), (10, 12), (10, 13), (13, 14), (10, 14)]
    edges += [(20, 21), (21, 22), (20, 22)]
    for u, v in edges:
        g.add_edge(u, v)
    compiled = compile_graph(g)
    assert compiled.identity_labels
    enumerated = [sorted(c) for c in clique_ids(compiled) if len(c) >= 3]
    assert enumerated[-1] == [0, 1, 2, 3, 4]
    communities, count = _percolate_ids(compiled, k=3)
    assert [sorted(c) for c in communities] == [
        [0, 1, 2, 3, 4], [10, 11, 12], [10, 13, 14], [20, 21, 22]
    ]
    assert count == 4


def test_percolate_ids_without_cliques():
    assert _percolate_ids(compile_graph(Graph()), k=3) == ([], 0)
    assert _percolate_ids(compile_graph(cycle_graph(5)), k=3) == ([], 0)
