"""Unit tests for the greedy local search (Section IV).

Every graph here has identity labels, so dense ids are the node labels.
"""

import pytest

from repro.core import (
    ArrayCommunityState,
    DirectedLaplacianFitness,
    LFKFitness,
    PhiFitness,
    admissible_c,
    grow_community,
)
from repro.errors import AlgorithmError
from repro.generators import (
    complete_graph,
    path_graph,
    ring_of_cliques,
    star_graph,
    two_cliques_bridged,
)
from repro.graph import Graph, compile_graph


def fitness_for(graph):
    return DirectedLaplacianFitness(c=admissible_c(graph, seed=0))


def test_empty_initial_set_rejected(k5):
    with pytest.raises(AlgorithmError):
        grow_community(compile_graph(k5), [], fitness_for(k5))


def test_clique_grows_to_whole_clique(k5):
    result = grow_community(compile_graph(k5), [0], fitness_for(k5))
    assert result.members == frozenset(k5.nodes())
    assert result.converged


def test_ring_clique_found_from_inside():
    g, cover = ring_of_cliques(4, 6)
    result = grow_community(compile_graph(g), [0, 1], fitness_for(g))
    assert result.members == cover[0]


def test_result_is_local_maximum():
    g, cover = ring_of_cliques(4, 6)
    fitness = fitness_for(g)
    result = grow_community(compile_graph(g), [0], fitness)
    state = ArrayCommunityState(compile_graph(g), result.members)
    current = state.value(fitness)
    for node in list(state.frontier):
        assert state.value_if_added(node, fitness) <= current + 1e-9
    for node in list(state.members):
        if state.size > 1:
            assert state.value_if_removed(node, fitness) <= current + 1e-9


def test_removals_prune_bad_seed_members():
    g, cover = ring_of_cliques(4, 6)
    # Seed with one clique plus a node from the opposite clique.
    stray = next(iter(cover[2]))
    initial = set(cover[0]) | {stray}
    result = grow_community(compile_graph(g), initial, fitness_for(g))
    assert stray not in result.members
    assert result.removals >= 1


def test_allow_removal_false_never_shrinks(k5):
    initial = {0, 1}
    result = grow_community(
        compile_graph(k5), initial, fitness_for(k5), allow_removal=False
    )
    assert initial <= set(result.members)
    assert result.removals == 0


def test_max_steps_budget_respected(k5):
    result = grow_community(compile_graph(k5), [0], fitness_for(k5), max_steps=1)
    assert result.steps <= 1


def test_fitness_value_reported_correctly(k5):
    fitness = fitness_for(k5)
    result = grow_community(compile_graph(k5), [0], fitness)
    state = ArrayCommunityState(compile_graph(k5), result.members)
    assert result.fitness_value == pytest.approx(state.value(fitness))


def test_overlapping_cliques_found_separately():
    g, truth = two_cliques_bridged(6, 2)
    fitness = fitness_for(g)
    left = grow_community(compile_graph(g), [0], fitness).members
    right = grow_community(compile_graph(g), [9], fitness).members
    assert left in {frozenset(c) for c in truth}
    assert right in {frozenset(c) for c in truth}
    assert left != right


def test_star_grows_to_whole_star():
    """On a star, each extra leaf adds exactly one internal edge, which
    keeps L creeping upward (verified by hand for c = 1/3): the whole
    star is the unique local maximum reachable from the centre."""
    g = star_graph(8)
    result = grow_community(compile_graph(g), [0], fitness_for(g))
    assert result.members == frozenset(g.nodes())


def test_phi_fitness_degenerates_to_whole_graph():
    """The Section-II observation: phi's only local max is the full graph."""
    g, _ = ring_of_cliques(4, 5)
    c = admissible_c(g, seed=0)
    result = grow_community(compile_graph(g), [0], PhiFitness(c))
    assert result.members == frozenset(g.nodes())


def test_lfk_fitness_usable_via_generic_path():
    g, cover = ring_of_cliques(4, 6)
    result = grow_community(compile_graph(g), [0, 1], LFKFitness(alpha=1.0))
    assert result.members == cover[0]


def test_growth_on_disconnected_component_stays_inside():
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)])
    result = grow_community(compile_graph(g), [0], fitness_for(g))
    assert result.members <= {0, 1, 2}
