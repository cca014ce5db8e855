"""The greedy search against its frozen oracle, and the Laplacian's
per-size term tables against the closed form, bit for bit.

:func:`~repro.core.growth.grow_community` scores a monotone fitness's
moves from :meth:`size_terms` tables; the oracle in ``tests/conftest.py``
scores every move through the closed form on the three-array
:class:`~tests.conftest.ParkedDriftState`.  Members, fitness value (by
``.hex()``), step counts and convergence must all agree.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DirectedLaplacianFitness,
    LFKFitness,
    PhiFitness,
    admissible_c,
    directed_laplacian_value,
    grow_community,
)
from repro.core.fitness import laplacian_terms
from repro.generators import (
    LFRParams,
    caveman_graph,
    complete_graph,
    cycle_graph,
    lfr_graph,
    ring_of_cliques,
    star_graph,
)
from repro.graph import Graph, compile_graph

from ..conftest import edge_lists, frozen_laplacian_value, oracle_grow_community


def _outcome(result):
    return (
        result.members,
        result.fitness_value.hex(),
        result.steps,
        result.additions,
        result.removals,
        result.converged,
    )


def _oracle_outcome(*args, **kwargs):
    members, value, steps, additions, removals, converged = oracle_grow_community(
        *args, **kwargs
    )
    return members, value.hex(), steps, additions, removals, converged


FITNESSES = st.one_of(
    st.floats(0.0, 0.99).map(lambda c: DirectedLaplacianFitness(c=c)),
    st.floats(0.0, 0.99).map(lambda c: PhiFitness(c=c)),
    st.sampled_from([1.0, 0.8, 1.3]).map(lambda alpha: LFKFitness(alpha=alpha)),
)


@settings(max_examples=250, deadline=None)
@given(
    edges=edge_lists(max_nodes=14, max_edges=45),
    fitness=FITNESSES,
    start=st.lists(st.integers(0, 13), min_size=1, max_size=4),
    max_steps=st.one_of(st.none(), st.integers(0, 6)),
    allow_removal=st.booleans(),
)
def test_growth_matches_the_frozen_oracle(
    edges, fitness, start, max_steps, allow_removal
):
    compiled = compile_graph(Graph(edges=edges, nodes=range(14)))
    assert _outcome(
        grow_community(compiled, start, fitness, max_steps, allow_removal)
    ) == _oracle_outcome(compiled, start, fitness, max_steps, allow_removal)


@pytest.mark.parametrize(
    "graph",
    [
        complete_graph(9),
        cycle_graph(12),
        star_graph(10),
        ring_of_cliques(5, 6)[0],
        caveman_graph(4, 5)[0],
        lfr_graph(LFRParams(n=300, mu=0.3), seed=3).graph,
    ],
    ids=["clique", "ring", "star", "ring-of-cliques", "caveman", "lfr"],
)
def test_growth_matches_the_oracle_on_generated_graphs(graph):
    compiled = compile_graph(graph)
    fitness = DirectedLaplacianFitness(c=admissible_c(graph, seed=0))
    rng = random.Random(7)
    n = compiled.number_of_nodes()
    for trial in range(12):
        start = rng.sample(range(n), rng.randint(1, min(4, n)))
        max_steps = None if trial % 3 else rng.randint(1, 20)
        assert _outcome(
            grow_community(compiled, start, fitness, max_steps)
        ) == _oracle_outcome(compiled, start, fitness, max_steps)


def test_laplacian_terms_are_bit_identical_to_the_closed_form():
    """Sizes 0 .. 10**5, each with a random ``c`` and ``E_in``, through
    both readers of the tables: the public value function and the
    growth loop's ``a + 2.0 * c * E * k``."""
    top = 10**5
    rng = np.random.default_rng(26)
    cs = rng.random(top + 1).tolist()
    edges = rng.integers(0, 4 * top, top + 1).tolist()
    a, k = DirectedLaplacianFitness(c=0.5).size_terms(top)
    for size in range(top + 1):
        c, e_in = cs[size], edges[size]
        expected = frozen_laplacian_value(size, e_in, c).hex()
        assert directed_laplacian_value(size, e_in, c).hex() == expected
        assert (a[size] + 2.0 * c * e_in * k[size]).hex() == expected


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(0, 10**5),
    e_in=st.integers(0, 10**9),
    c=st.floats(0.0, 1.0, exclude_max=True),
)
def test_laplacian_value_bits_at_any_size(size, e_in, c):
    assert (
        directed_laplacian_value(size, e_in, c).hex()
        == frozen_laplacian_value(size, e_in, c).hex()
    )


def test_laplacian_terms_grow_without_changing_earlier_entries():
    a, k = laplacian_terms(10)
    head = (list(a[:11]), list(k[:11]))
    longer_a, longer_k = laplacian_terms(3 * len(a))
    assert len(longer_a) > 3 * len(a) - 1
    assert (longer_a[:11], longer_k[:11]) == head


def test_phi_terms_are_bit_identical_to_phi():
    fitness = PhiFitness(c=0.37)
    a, k = fitness.size_terms(500)
    for size in range(501):
        e_in = 3 * size + 1
        assert (a[size] + 2.0 * fitness.c * e_in * k[size]).hex() == fitness.value(
            size, e_in, 0
        ).hex()
