"""ArrayCommunityState must track exactly what a from-scratch count says.

The state is the only incremental bookkeeping on the greedy hot path,
so its observable surface — aggregates, per-node counters, and the
argmax/argmin move probes with their lowest-id tie-breaking — must
agree on every reachable configuration with a brute-force recount.
These tests drive it through mutation sequences and compare everything
after every step, against that recount and against the three-array
state it replaced (:class:`~tests.conftest.ParkedDriftState`).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DirectedLaplacianFitness, LFKFitness
from repro.core.state import ArrayCommunityState
from repro.errors import AlgorithmError, NodeNotFoundError
from repro.generators import complete_graph, ring_of_cliques
from repro.graph import Graph, compile_graph

from ..conftest import ParkedDriftState, edge_lists

FITNESS = DirectedLaplacianFitness(c=0.4)


def assert_matches_recount(state):
    """Every observable of ``state`` against a from-scratch recount."""
    compiled = state.graph
    members = set(state.members)
    links = {
        v: sum(1 for u in compiled.neighbors(v) if int(u) in members)
        for v in compiled.nodes()
    }
    frontier = {v: links[v] for v in compiled.nodes() if v not in members and links[v]}
    assert state.size == len(members)
    assert state.internal_edges == sum(links[v] for v in members) // 2
    assert state.volume == sum(compiled.degree(v) for v in members)
    assert state.frontier == frontier
    for node in members:
        assert state.internal_degree_of(node) == links[node]
    best = min(frontier, key=lambda v: (-frontier[v], v)) if frontier else None
    weakest = min(members, key=lambda v: (links[v], v)) if members else None
    assert state.best_frontier_node() == best
    assert state.weakest_member() == weakest
    if best is not None:
        assert state.value_if_added(best, FITNESS) == FITNESS.value(
            state.size + 1,
            state.internal_edges + frontier[best],
            state.volume + compiled.degree(best),
        )
    if weakest is not None and len(members) > 1:
        assert state.value_if_removed(weakest, FITNESS) == FITNESS.value(
            state.size - 1,
            state.internal_edges - links[weakest],
            state.volume - compiled.degree(weakest),
        )
    state.verify()


class TestAgainstRecount:
    def test_k5_initial_members(self):
        state = ArrayCommunityState(compile_graph(complete_graph(5)), [0, 1, 2])
        assert_matches_recount(state)

    def test_ring_of_cliques_growth_sequence(self):
        g, _ = ring_of_cliques(4, 5)
        state = ArrayCommunityState(compile_graph(g), [0])
        for _ in range(6):
            node = state.best_frontier_node()
            if node is None:
                break
            state.add(node)
            assert_matches_recount(state)

    def test_remove_then_re_add(self):
        state = ArrayCommunityState(compile_graph(complete_graph(6)), [0, 1, 2, 3])
        state.remove(1)
        assert_matches_recount(state)
        state.add(1)
        assert_matches_recount(state)


class TestArrayStateContracts:
    def test_add_duplicate_raises(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [0])
        with pytest.raises(AlgorithmError):
            state.add(0)

    def test_add_unknown_id_raises(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)))
        with pytest.raises(NodeNotFoundError):
            state.add(9)

    def test_remove_non_member_raises(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [0])
        with pytest.raises(AlgorithmError):
            state.remove(2)

    def test_contains_and_len(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [1, 3])
        assert 1 in state and 3 in state
        assert 0 not in state and 99 not in state
        assert len(state) == 2

    def test_empty_state_has_no_moves(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)))
        assert state.best_frontier_node() is None
        assert state.weakest_member() is None
        assert state.frontier == {}
        assert state.members == []

    def test_bulk_arrays_mirror_the_scalar_views(self):
        g, _ = ring_of_cliques(3, 4)
        state = ArrayCommunityState(compile_graph(g), [0, 1, 4, 5])
        members = state.member_id_array()
        frontier = state.frontier_id_array()
        assert members.tolist() == state.members
        assert frontier.tolist() == sorted(state.frontier)
        assert state.frontier_gain_array(frontier).tolist() == [
            state.frontier[v] for v in sorted(state.frontier)
        ]
        assert state.internal_degree_array(members).tolist() == [
            state.internal_degree_of(v) for v in state.members
        ]

    def test_value_probes_reject_the_wrong_side(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [0, 1])
        with pytest.raises(AlgorithmError):
            state.value_if_added(0, FITNESS)
        with pytest.raises(AlgorithmError):
            state.value_if_removed(2, FITNESS)

    def test_full_graph_has_no_frontier(self):
        state = ArrayCommunityState(
            compile_graph(complete_graph(3)), [0, 1, 2]
        )
        assert state.best_frontier_node() is None
        assert state.frontier == {}

    def test_tie_breaks_choose_lowest_id(self):
        # K4: after seeding {0}, every other node has one member link.
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [0])
        assert state.best_frontier_node() == 1
        state.add(1)
        # Members 0 and 1 both have internal degree 1: lowest id wins.
        assert state.weakest_member() == 0
        assert state.best_frontier_node() == 2


@settings(max_examples=40, deadline=None)
@given(
    edges=edge_lists(max_nodes=10, max_edges=30),
    moves=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_mutation_sequences_match_recount(edges, moves):
    """Random add/remove walks keep every observable exact."""
    compiled = compile_graph(Graph(edges=edges))
    if compiled.number_of_nodes() == 0:
        return
    state = ArrayCommunityState(compiled, [0])
    rng = random.Random(moves)
    ids = list(compiled.nodes())
    for _ in range(12):
        if rng.random() < 0.7 or state.size <= 1:
            candidates = [v for v in ids if v not in state]
            if not candidates:
                break
            state.add(rng.choice(candidates))
        else:
            state.remove(rng.choice(state.members))
        assert_matches_recount(state)


@settings(max_examples=60, deadline=None)
@given(
    edges=edge_lists(max_nodes=12, max_edges=40),
    moves=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_array_state_matches_the_parked_drift_oracle(edges, moves):
    """Every observable equals the three-array oracle's after every move."""
    compiled = compile_graph(Graph(edges=edges))
    if compiled.number_of_nodes() == 0:
        return
    state = ArrayCommunityState(compiled, [0])
    oracle = ParkedDriftState(compiled, [0])
    rng = random.Random(moves)
    ids = list(compiled.nodes())
    for _ in range(20):
        if rng.random() < 0.65 or state.size <= 1:
            candidates = [v for v in ids if v not in state]
            if not candidates:
                break
            node = rng.choice(candidates)
            state.add(node)
            oracle.add(node)
        else:
            node = rng.choice(state.members)
            state.remove(node)
            oracle.remove(node)
        assert state.best_frontier_node() == oracle.best_frontier_node()
        assert state.weakest_member() == oracle.weakest_member()
        assert state.frontier == oracle.frontier
        assert state.members == oracle.members
        assert (state.size, state.internal_edges, state.volume) == (
            oracle.size, oracle.internal_edges, oracle.volume
        )
        for fitness in (FITNESS, LFKFitness(alpha=1.0)):
            for member in state.members:
                assert state.internal_degree_of(member) == oracle.internal_degree_of(
                    member
                )
                assert state.value_if_removed(member, fitness) == (
                    oracle.value_if_removed(member, fitness)
                )
            for node in state.frontier:
                assert state.value_if_added(node, fitness) == (
                    oracle.value_if_added(node, fitness)
                )
        state.verify()


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("side", ["member", "non-member"])
def test_verify_catches_one_entry_off_by_one(side, delta):
    g, _ = ring_of_cliques(3, 4)
    state = ArrayCommunityState(compile_graph(g), [0, 1, 2, 4])
    state.verify()
    node = 1 if side == "member" else 3
    assert (node in state) == (side == "member")
    state._links[node] += delta
    with pytest.raises(AlgorithmError):
        state.verify()
