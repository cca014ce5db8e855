"""Unit tests for classic graphs."""

import pytest

from repro.errors import GeneratorError
from repro.generators import (
    caveman_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    karate_club,
    path_graph,
    ring_of_cliques,
    star_graph,
    two_cliques_bridged,
)
from repro.graph import connected_components


def test_complete_graph_counts():
    g = complete_graph(6)
    assert g.number_of_nodes() == 6
    assert g.number_of_edges() == 15


def test_complete_graph_empty():
    assert complete_graph(0).number_of_nodes() == 0


def test_path_graph():
    g = path_graph(5)
    assert g.number_of_edges() == 4
    assert g.degree(0) == 1 and g.degree(2) == 2


def test_cycle_graph():
    g = cycle_graph(6)
    assert all(g.degree(v) == 2 for v in g.nodes())
    with pytest.raises(GeneratorError):
        cycle_graph(2)


def test_star_graph():
    g = star_graph(7)
    assert g.degree(0) == 7
    assert g.number_of_edges() == 7


def test_erdos_renyi_extremes():
    assert erdos_renyi(10, 0.0, seed=0).number_of_edges() == 0
    assert erdos_renyi(10, 1.0, seed=0).number_of_edges() == 45


def test_erdos_renyi_deterministic():
    assert erdos_renyi(20, 0.3, seed=5) == erdos_renyi(20, 0.3, seed=5)


def test_erdos_renyi_validates():
    with pytest.raises(GeneratorError):
        erdos_renyi(10, 1.5)


def test_ring_of_cliques_structure():
    g, cover = ring_of_cliques(4, 5)
    assert g.number_of_nodes() == 20
    assert g.number_of_edges() == 4 * 10 + 4
    assert len(cover) == 4
    assert len(connected_components(g)) == 1


def test_ring_of_cliques_validates():
    with pytest.raises(GeneratorError):
        ring_of_cliques(2, 5)
    with pytest.raises(GeneratorError):
        ring_of_cliques(3, 1)


def test_caveman_graph():
    g, cover = caveman_graph(3, 5)
    assert g.number_of_nodes() == 15
    assert len(cover) == 3
    assert len(connected_components(g)) == 1


def test_caveman_validates():
    with pytest.raises(GeneratorError):
        caveman_graph(1, 5)
    with pytest.raises(GeneratorError):
        caveman_graph(3, 2)


def test_two_cliques_bridged_overlap():
    g, cover = two_cliques_bridged(6, 2)
    assert len(cover) == 2
    assert len(cover.overlapping_nodes()) == 2
    assert g.number_of_nodes() == 10


def test_two_cliques_bridged_validates():
    with pytest.raises(GeneratorError):
        two_cliques_bridged(2)
    with pytest.raises(GeneratorError):
        two_cliques_bridged(5, 5)


def test_karate_club_canonical_counts():
    g, factions = karate_club()
    assert g.number_of_nodes() == 34
    assert g.number_of_edges() == 78
    assert len(connected_components(g)) == 1
    assert len(factions) == 2
    assert factions.covered_nodes() == set(range(34))
    assert not factions.overlapping_nodes()
