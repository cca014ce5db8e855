"""Unit tests for the LFK baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lfk import _lfk_values, _natural_community_ids
from repro.core import LFKFitness
from repro.communities import theta
from repro.errors import ConfigurationError
from repro.generators import (
    complete_graph,
    ring_of_cliques,
    two_cliques_bridged,
)
from repro.graph import Graph, compile_graph

from ..conftest import detect


def natural_community(graph, node, alpha=1.0, max_steps=None):
    """The kernel's natural community, for identity-labelled graphs."""
    compiled = compile_graph(graph)
    degrees = compiled.degrees.astype(np.int64)
    ids = _natural_community_ids(compiled, degrees, node, alpha, max_steps)
    return set(ids.tolist())


def lfk(graph, seed=None, **params):
    return detect("lfk", graph, seed=seed, **params)


def test_natural_community_of_clique_member():
    g, truth = ring_of_cliques(4, 6)
    community = natural_community(g, 0)
    assert community == set(truth[0])


def test_natural_community_deterministic():
    g, _ = ring_of_cliques(4, 6)
    assert natural_community(g, 3) == natural_community(g, 3)


def test_natural_community_respects_alpha():
    g, _ = ring_of_cliques(4, 6)
    # Very small alpha flattens the resolution: (k_in + k_out)^alpha barely
    # penalises boundary, so the community expands beyond one clique.
    wide = natural_community(g, 0, alpha=0.05)
    narrow = natural_community(g, 0, alpha=1.0)
    assert len(wide) > len(narrow)


def test_natural_community_max_steps():
    g = complete_graph(30)
    community = natural_community(g, 0, max_steps=3)
    assert len(community) <= 4


def test_cover_includes_every_node():
    g, _ = ring_of_cliques(4, 5)
    result = lfk(g, seed=0)
    assert result.cover.covered_nodes() == set(g.nodes())


def test_ring_of_cliques_exact():
    g, truth = ring_of_cliques(5, 6)
    result = lfk(g, seed=0)
    assert theta(truth, result.cover) == pytest.approx(1.0)


def test_overlapping_cliques_both_found():
    g, truth = two_cliques_bridged(7, 2)
    result = lfk(g, seed=0)
    assert theta(truth, result.cover) >= 0.8


def test_deterministic_given_seed():
    g, _ = ring_of_cliques(4, 5)
    assert lfk(g, seed=42).cover == lfk(g, seed=42).cover


def test_alpha_validated():
    with pytest.raises(ConfigurationError):
        lfk(Graph(edges=[(0, 1)]), alpha=-1.0)


def test_result_metadata():
    g, _ = ring_of_cliques(3, 5)
    result = lfk(g, seed=0)
    assert result.stats["alpha"] == 1.0
    assert result.stats["natural_communities"] >= 3
    assert result.elapsed_seconds >= 0.0
    assert "DetectionResult" in repr(result)


def test_isolated_node_becomes_singleton():
    g = Graph(edges=[(0, 1), (1, 2), (0, 2)], nodes=[9])
    result = lfk(g, seed=0)
    assert {9} in result.cover


@st.composite
def lfk_stats(draw):
    """Integer ``(E, V)`` stat arrays with ``V >= 2E``, ``V == 0`` included."""
    volumes = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(0, 2**40)), min_size=0, max_size=30
        )
    )
    edges = [draw(st.integers(0, volume // 2)) for volume in volumes]
    return np.array(edges, dtype=np.int64), np.array(volumes, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(stats=lfk_stats(), alpha=st.sampled_from([1.0, 0.5, 0.8, 1.3]))
def test_lfk_values_are_bit_identical_to_the_scalar_fitness(stats, alpha):
    internal_edges, volumes = stats
    fitness = LFKFitness(alpha=alpha)
    expected = np.array(
        [fitness.value(1, e, v) for e, v in zip(internal_edges.tolist(), volumes.tolist())],
        dtype=np.float64,
    )
    got = _lfk_values(alpha, internal_edges, volumes)
    assert got.dtype == np.float64
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
