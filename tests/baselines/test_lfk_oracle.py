"""LFK's natural community against its frozen oracle.

:func:`~repro.baselines.lfk._natural_community_ids` scores step A in one
dense pass and takes the ``argmax`` whenever that is provably the
eps-chain's pick; the oracle in ``tests/conftest.py`` scores the
frontier only and always runs the chain.  Tie-heavy graphs (cliques,
rings, regular graphs) are where the two could part.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.lfk as lfk
from repro.generators import (
    caveman_graph,
    complete_graph,
    cycle_graph,
    ring_of_cliques,
    star_graph,
)
from repro.graph import Graph, compile_graph

from ..conftest import edge_lists, oracle_natural_community

ALPHAS = [1.0, 0.8, 1.3]


def kernel(compiled, node, alpha, max_steps=None):
    degrees = compiled.degrees.astype(np.int64)
    return lfk._natural_community_ids(
        compiled, degrees, node, alpha, max_steps
    ).tolist()


def oracle(compiled, node, alpha, max_steps=None, eps=lfk._EPS):
    return oracle_natural_community(compiled, node, alpha, max_steps, eps).tolist()


def regular_graph(n, offsets):
    """The circulant graph joining ``i`` to ``i +- d`` for each offset."""
    return Graph(
        edges=[(i, (i + d) % n) for i in range(n) for d in offsets], nodes=range(n)
    )


TIE_HEAVY = {
    "clique": complete_graph(8),
    "ring": cycle_graph(15),
    "star": star_graph(9),
    "regular-4": regular_graph(16, (1, 2)),
    "regular-6": regular_graph(18, (1, 3, 5)),
    "ring-of-cliques": ring_of_cliques(5, 5)[0],
    "caveman": caveman_graph(4, 6)[0],
}


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_every_natural_community_matches_the_oracle(name, alpha):
    compiled = compile_graph(TIE_HEAVY[name])
    for node in range(compiled.number_of_nodes()):
        assert kernel(compiled, node, alpha) == oracle(compiled, node, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_step_budgets_match_the_oracle(alpha):
    compiled = compile_graph(ring_of_cliques(4, 6)[0])
    for max_steps in (0, 1, 2, 5, 9):
        for node in (0, 7, 13):
            assert kernel(compiled, node, alpha, max_steps) == oracle(
                compiled, node, alpha, max_steps
            )


@pytest.mark.parametrize("alpha", ALPHAS)
def test_isolated_seed_is_its_own_community(alpha):
    compiled = compile_graph(Graph(edges=[(0, 1), (1, 2)], nodes=[3]))
    seed = compiled.id_of(3)
    assert kernel(compiled, seed, alpha) == oracle(compiled, seed, alpha) == [seed]


@settings(max_examples=200, deadline=None)
@given(
    edges=edge_lists(max_nodes=14, max_edges=45),
    node=st.integers(0, 13),
    alpha=st.sampled_from(ALPHAS),
    max_steps=st.one_of(st.none(), st.integers(0, 8)),
)
def test_random_graphs_match_the_oracle(edges, node, alpha, max_steps):
    compiled = compile_graph(Graph(edges=edges, nodes=range(14)))
    assert kernel(compiled, node, alpha, max_steps) == oracle(
        compiled, node, alpha, max_steps
    )


def _chain(values, current, eps):
    best, best_value = None, current
    for position, value in enumerate(values.tolist()):
        if value > best_value + eps:
            best, best_value = position, value
    return best


def test_an_earlier_near_tie_takes_the_chain_not_the_argmax():
    """The maximum sits at id 2, but id 0 is within eps below it: the
    chain takes id 0 and then cannot move to id 2, so the argmax would
    be wrong and the chain must run."""
    current = 0.25
    values = np.array([0.5, 0.1, 0.5 + 0.5 * lfk._EPS, 0.3])
    assert int(values.argmax()) == 2
    assert lfk._best_addition(values, current) == 0 == _chain(values, current, lfk._EPS)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 0.5 + 1e-13, 0.5 + 3e-12, 0.75, 1.0]),
        min_size=1,
        max_size=12,
    ),
    current=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
)
def test_best_addition_is_the_chain_pick(values, current):
    array = np.array(values)
    assert lfk._best_addition(array, current) == _chain(array, current, lfk._EPS)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_coarse_eps_exercises_the_chain_against_the_oracle(monkeypatch, alpha):
    """With eps coarse enough to make distinct fitness values near-ties,
    step A must fall back to the chain on some steps and still pick
    what the oracle picks."""
    eps = 0.05
    monkeypatch.setattr(lfk, "_EPS", eps)
    original = lfk._best_addition
    fallbacks = []

    def spy(values, current):
        picked = original(values, current)
        if picked is not None and picked != int(values.argmax()):
            fallbacks.append(picked)
        return picked

    monkeypatch.setattr(lfk, "_best_addition", spy)
    for graph in (caveman_graph(4, 6)[0], ring_of_cliques(5, 5)[0]):
        compiled = compile_graph(graph)
        for node in range(compiled.number_of_nodes()):
            assert kernel(compiled, node, alpha) == oracle(
                compiled, node, alpha, eps=eps
            )
    assert fallbacks
