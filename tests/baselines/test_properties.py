"""Property-based tests on the baseline algorithms (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import maximal_cliques
from repro.baselines.lfk import _natural_community_ids
from repro.graph import Graph, compile_graph

from ..conftest import detect, edge_lists, pairwise_percolation


@settings(max_examples=30, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25), k=st.integers(2, 4))
def test_cpm_communities_are_unions_of_k_cliques(edges, k):
    """Every CPM community contains a clique of size >= k, and every
    member of a community belongs to such a clique inside it."""
    g = Graph(edges=edges)
    result = detect("cpm", g, k=k)
    cliques = [c for c in maximal_cliques(g) if len(c) >= k]
    for community in result.cover:
        members = set(community)
        inside = [c for c in cliques if c <= members]
        assert inside, "community without a supporting clique"
        covered = set()
        for clique in inside:
            covered |= clique
        assert covered == members


@settings(max_examples=30, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=30), k=st.integers(2, 5))
def test_cpm_matches_pairwise_percolation(edges, k):
    """The subset-grouping kernel and the published pairwise clique
    comparison always compute the same communities."""
    g = Graph(edges=edges)
    assert detect("cpm", g, k=k).cover == pairwise_percolation(g, k)


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25), seed=st.integers(0, 3))
def test_lfk_cover_is_total_and_deterministic(edges, seed):
    g = Graph(edges=edges)
    if g.number_of_nodes() == 0:
        return
    result = detect("lfk", g, seed=seed)
    assert result.cover.covered_nodes() == set(g.nodes())
    assert detect("lfk", g, seed=seed).cover == result.cover


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25))
def test_lfk_natural_community_is_local_optimum(edges):
    """No single removal improves the LFK fitness of a natural community
    (the addition side may admit zero-gain plateaus, which step A skips)."""
    from repro.core import LFKFitness
    from repro.core.state import ArrayCommunityState

    compiled = compile_graph(Graph(edges=edges))
    if compiled.number_of_nodes() == 0:
        return
    degrees = compiled.degrees.astype("int64")
    community = _natural_community_ids(compiled, degrees, 0, 1.0, None)
    fitness = LFKFitness(alpha=1.0)
    state = ArrayCommunityState(compiled, community)
    current = state.value(fitness)
    if state.size > 1:
        for member in list(state.members):
            assert state.value_if_removed(member, fitness) <= current + 1e-9


@settings(max_examples=20, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=30))
def test_greedy_modularity_contract(edges):
    g = Graph(edges=edges)
    if g.number_of_edges() == 0:
        return
    result = detect("modularity_greedy", g)
    # Disjoint, exhaustive, and modularity in valid range.
    assert result.cover.covered_nodes() == set(g.nodes())
    assert not result.cover.overlapping_nodes()
    assert -0.5 <= result.stats["modularity"] <= 1.0
