"""Unit tests for the random seed neighbourhood."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError
from repro.graph import Graph, compile_graph, random_neighborhood_subset
from repro.generators import complete_graph, star_graph

from ..conftest import edge_lists


def test_random_neighborhood_always_contains_seed():
    star = star_graph(10)
    chosen = random_neighborhood_subset(star, 0, fraction=0.0, seed=1)
    assert chosen == {0}


def test_random_neighborhood_full_fraction_is_closed_neighborhood():
    star = star_graph(10)
    chosen = random_neighborhood_subset(star, 0, fraction=1.0, seed=1)
    assert chosen == set(range(11))


def test_random_neighborhood_reproducible():
    g = complete_graph(20)
    a = random_neighborhood_subset(g, 0, fraction=0.5, seed=7)
    b = random_neighborhood_subset(g, 0, fraction=0.5, seed=7)
    assert a == b


def test_random_neighborhood_fraction_validated(k5):
    with pytest.raises(ValueError):
        random_neighborhood_subset(k5, 0, fraction=1.5)


def test_random_neighborhood_of_missing_node_raises(k5):
    with pytest.raises(NodeNotFoundError):
        random_neighborhood_subset(k5, 99)


def test_random_neighborhood_same_on_both_graph_forms():
    g = complete_graph(20)
    compiled = compile_graph(g)
    assert random_neighborhood_subset(g, 3, seed=5) == random_neighborhood_subset(
        compiled, 3, seed=5
    )


def test_negative_fraction_rejected(k5):
    with pytest.raises(ValueError):
        random_neighborhood_subset(k5, 0, fraction=-0.1)


def test_isolated_seed_yields_itself():
    g = Graph(edges=[(0, 1)], nodes=[9])
    assert random_neighborhood_subset(g, 9, fraction=1.0, seed=3) == {9}


def test_string_labels_draw_same_neighbours_on_both_graph_forms():
    g = Graph(edges=[("hub", f"leaf{i}") for i in range(12)])
    compiled = compile_graph(g)
    hub = compiled.id_of("hub")
    ours = random_neighborhood_subset(g, "hub", seed=4) - {"hub"}
    assert ours == random_neighborhood_subset(compiled, hub, seed=4) - {hub}
    assert 0 < len(ours) < 12


def test_draw_ignores_edge_insertion_order():
    # Node ranks fix the draw; the order edges arrive in does not.
    nodes = list(range(15))
    forward = Graph(nodes=nodes, edges=[(0, v) for v in range(1, 15)])
    backward = Graph(nodes=nodes, edges=[(0, v) for v in reversed(range(1, 15))])
    for seed in range(5):
        assert random_neighborhood_subset(
            forward, 0, seed=seed
        ) == random_neighborhood_subset(backward, 0, seed=seed)


def test_fraction_sets_expected_size():
    chosen = random_neighborhood_subset(star_graph(400), 0, fraction=0.25, seed=11)
    assert 60 <= len(chosen) - 1 <= 140


def test_seeds_give_different_draws():
    g = complete_graph(40)
    draws = {
        frozenset(random_neighborhood_subset(g, 0, seed=seed)) for seed in range(5)
    }
    assert len(draws) == 5


@given(edges=edge_lists(), seed=st.integers(0, 2**16), fraction=st.floats(0, 1))
def test_subset_of_closed_neighbourhood(edges, seed, fraction):
    g = Graph(edges=edges)
    if not g.number_of_nodes():
        return
    node = next(iter(g.nodes()))
    chosen = random_neighborhood_subset(g, node, fraction=fraction, seed=seed)
    assert node in chosen
    assert chosen <= g.neighbors(node) | {node}
