"""Unit and property tests for ArrayCommunityState incremental tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DirectedLaplacianFitness
from repro.core.state import ArrayCommunityState
from repro.errors import AlgorithmError, NodeNotFoundError
from repro.generators import complete_graph
from repro.graph import Graph, compile_graph

from ..conftest import edge_lists


@pytest.fixture
def k5c(k5):
    return compile_graph(k5)


class TestArrayCommunityState:
    def test_initial_statistics(self, k5c):
        state = ArrayCommunityState(k5c, [0, 1, 2])
        assert state.size == 3
        assert state.internal_edges == 3
        assert state.volume == 12

    def test_frontier_counts(self, k5c):
        state = ArrayCommunityState(k5c, [0, 1])
        assert state.frontier == {2: 2, 3: 2, 4: 2}

    def test_add_updates_everything(self, k5c):
        state = ArrayCommunityState(k5c, [0])
        state.add(1)
        state.add(2)
        state.verify()
        assert state.internal_edges == 3

    def test_remove_reverses_add(self, k5c):
        state = ArrayCommunityState(k5c, [0, 1, 2])
        state.remove(1)
        state.verify()
        assert state.size == 2
        assert state.internal_edges == 1

    def test_add_member_twice_raises(self, k5c):
        state = ArrayCommunityState(k5c, [0])
        with pytest.raises(AlgorithmError):
            state.add(0)

    def test_remove_non_member_raises(self, k5c):
        state = ArrayCommunityState(k5c, [0])
        with pytest.raises(AlgorithmError):
            state.remove(3)

    def test_add_missing_node_raises(self, k5c):
        state = ArrayCommunityState(k5c, [0])
        with pytest.raises(NodeNotFoundError):
            state.add(99)

    def test_internal_degree_of(self, k5c):
        state = ArrayCommunityState(k5c, [0, 1, 2])
        assert state.internal_degree_of(0) == 2
        with pytest.raises(AlgorithmError):
            state.internal_degree_of(4)

    def test_best_frontier_node_breaks_ties_to_lowest_id(self, path5):
        state = ArrayCommunityState(compile_graph(path5), [1, 2])
        # Frontier: 0 (1 link), 3 (1 link); both count 1.
        assert state.best_frontier_node() == 0

    def test_weakest_member(self):
        g = complete_graph(4)
        g.add_edge(0, 99)  # pendant, dense id 4
        state = ArrayCommunityState(compile_graph(g), [0, 1, 2, 4])
        assert state.weakest_member() == 4

    def test_value_if_added_matches_actual(self, k5c):
        fitness = DirectedLaplacianFitness(c=0.2)
        state = ArrayCommunityState(k5c, [0, 1])
        predicted = state.value_if_added(2, fitness)
        state.add(2)
        assert state.value(fitness) == pytest.approx(predicted)

    def test_value_if_removed_matches_actual(self, k5c):
        fitness = DirectedLaplacianFitness(c=0.2)
        state = ArrayCommunityState(k5c, [0, 1, 2])
        predicted = state.value_if_removed(2, fitness)
        state.remove(2)
        assert state.value(fitness) == pytest.approx(predicted)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=30), data=st.data())
def test_random_mutation_sequence_preserves_invariants(edges, data):
    """Fuzz add/remove sequences; verify() recomputes from scratch."""
    compiled = compile_graph(Graph(edges=edges))
    nodes = list(compiled.nodes())
    if not nodes:
        return
    state = ArrayCommunityState(compiled, [nodes[0]])
    for _ in range(data.draw(st.integers(min_value=0, max_value=20))):
        frontier = list(state.frontier)
        members = list(state.members)
        moves = []
        if frontier:
            moves.append("add-frontier")
        if len(members) > 1:
            moves.append("remove")
        outside = [n for n in nodes if n not in state]
        if outside:
            moves.append("add-any")
        if not moves:
            break
        move = data.draw(st.sampled_from(moves))
        if move == "add-frontier":
            state.add(data.draw(st.sampled_from(frontier)))
        elif move == "remove":
            state.remove(data.draw(st.sampled_from(members)))
        else:
            state.add(data.draw(st.sampled_from(outside)))
    state.verify()
