"""Unit tests for the ``neighbor_sets`` materialiser, the bridge the
set-based clique kernel builds its per-vertex neighbourhoods from."""

import pytest

from repro import Graph, compile_graph


@pytest.fixture()
def compiled():
    g = Graph(nodes=range(6))
    for u, v in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]:
        g.add_edge(u, v)
    # node 5 stays isolated
    return compile_graph(g)


def test_neighbor_sets_matches_rows(compiled):
    sets = compiled.neighbor_sets()
    assert sets == [
        {1, 2}, {0, 2}, {0, 1, 3}, {2, 4}, {3}, set(),
    ]
