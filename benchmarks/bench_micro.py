"""Micro-benchmarks of the load-bearing primitives.

Unlike the figure benches (single-shot sweeps), these use
pytest-benchmark's statistics properly: tight loops over the operations
whose constants dominate OCA's runtime — state mutation, fitness
evaluation, the spectral setup, and clique enumeration.
"""

import pytest

from repro.core import (
    ArrayCommunityState,
    DirectedLaplacianFitness,
    admissible_c,
    grow_community,
    lambda_min,
)
from repro.baselines import maximal_cliques
from repro.generators import LFRParams, erdos_renyi, lfr_graph
from repro.graph import compile_graph


@pytest.fixture(scope="module")
def lfr_instance():
    return lfr_graph(LFRParams(n=600, mu=0.3), seed=0)


def test_state_add_remove_cycle(benchmark, lfr_instance):
    graph = compile_graph(lfr_instance.graph)
    nodes = list(graph.nodes())[:64]

    def cycle():
        state = ArrayCommunityState(graph, [nodes[0]])
        for node in nodes[1:]:
            state.add(node)
        for node in nodes[1:]:
            state.remove(node)
        return state.size

    assert benchmark(cycle) == 1


def test_fitness_evaluation(benchmark):
    fitness = DirectedLaplacianFitness(c=0.2)

    def evaluate():
        total = 0.0
        for s in range(2, 300):
            total += fitness.value(s, 2 * s, 5 * s)
        return total

    assert benchmark(evaluate) > 0


def test_single_growth_run(benchmark, lfr_instance):
    graph = lfr_instance.graph
    c = admissible_c(graph, seed=0)
    fitness = DirectedLaplacianFitness(c)

    result = benchmark(grow_community, compile_graph(graph), [0], fitness)
    assert len(result.members) >= 1


def test_spectral_lambda_min(benchmark, lfr_instance):
    value = benchmark(lambda_min, lfr_instance.graph, 1e-6, 10000, 0, False)
    assert value < -1.0 or value == pytest.approx(-1.0, abs=1e-6)


def test_maximal_clique_enumeration(benchmark):
    graph = erdos_renyi(150, 0.12, seed=2)

    def enumerate_all():
        return sum(1 for _ in maximal_cliques(graph))

    assert benchmark(enumerate_all) > 0
