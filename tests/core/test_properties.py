"""Property-based tests for the OCA core (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities import Cover
from repro.core import (
    ArrayCommunityState,
    DirectedLaplacianFitness,
    admissible_c,
    directed_laplacian_value,
    grow_community,
    merge_similar,
    phi_value,
)
from repro.graph import Graph, compile_graph

from ..conftest import detect, edge_lists


@given(
    s=st.integers(min_value=1, max_value=200),
    e=st.integers(min_value=0, max_value=1000),
    c=st.floats(min_value=0.0, max_value=0.999),
)
def test_laplacian_matches_lattice_definition_symbolically(s, e, c):
    """L(s, e) = phi(s, e) - [s * phi(s-1) summed with edge corrections] /
    sqrt(s(s-1)): verify against the expanded predecessor sum.

    Sum over x of phi(S \\ {x}) = s(s-1) + 2c(sE - 2E) because each edge
    survives in exactly s - 2 of the s predecessor subsets.
    """
    if s == 1:
        assert directed_laplacian_value(s, 0, c) == 1.0
        return
    predecessors = s * (s - 1) + 2.0 * c * e * (s - 2)
    expected = phi_value(s, e, c) - predecessors / math.sqrt(s * (s - 1))
    assert directed_laplacian_value(s, e, c) == pytest.approx(expected)


@settings(max_examples=30, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25))
def test_growth_reaches_local_maximum(edges):
    g = Graph(edges=edges)
    if g.number_of_nodes() == 0 or g.number_of_edges() == 0:
        return
    c = admissible_c(g, seed=0)
    fitness = DirectedLaplacianFitness(c)
    compiled = compile_graph(g)
    result = grow_community(compiled, [0], fitness)
    assert result.converged
    state = ArrayCommunityState(compiled, result.members)
    current = state.value(fitness)
    for node in list(state.frontier):
        assert state.value_if_added(node, fitness) <= current + 1e-9
    if state.size > 1:
        for node in list(state.members):
            assert state.value_if_removed(node, fitness) <= current + 1e-9


@settings(max_examples=20, deadline=None)
@given(edges=edge_lists(max_nodes=12, max_edges=30), seed=st.integers(0, 3))
def test_oca_cover_is_wellformed(edges, seed):
    g = Graph(edges=edges)
    result = detect("oca", g, seed=seed)
    covered = result.cover.covered_nodes()
    assert covered <= set(g.nodes())
    for community in result.cover:
        assert len(community) >= 1
    # Raw cover communities are distinct.
    raw = result.raw_cover.communities()
    assert len(raw) == len(set(raw))


@settings(max_examples=20, deadline=None)
@given(edges=edge_lists(max_nodes=12, max_edges=30), seed=st.integers(0, 3))
def test_oca_deterministic_property(edges, seed):
    g = Graph(edges=edges)
    assert detect("oca", g, seed=seed).cover == detect("oca", g, seed=seed).cover


@settings(max_examples=40)
@given(
    communities=st.lists(
        st.sets(st.integers(0, 20), min_size=1, max_size=8),
        min_size=1,
        max_size=6,
    ),
    threshold=st.floats(min_value=0.05, max_value=1.0),
)
def test_merge_similar_fixed_point(communities, threshold):
    """Merging is idempotent and never increases the community count."""
    from repro.communities import rho

    cover = Cover(communities)
    merged = merge_similar(cover, threshold)
    assert len(merged) <= len(cover)
    # Fixed point: no remaining pair is mergeable.
    result = merged.communities()
    for i in range(len(result)):
        for j in range(i + 1, len(result)):
            assert rho(result[i], result[j]) < threshold
    # Idempotence.
    assert merge_similar(merged, threshold) == merged


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25))
def test_admissible_c_always_valid(edges):
    g = Graph(edges=edges)
    if g.number_of_nodes() == 0:
        return
    c = admissible_c(g, seed=0)
    assert 0.0 <= c < 1.0
    if g.number_of_edges() == 0:
        assert c == 0.0
