"""Graph form and execution never change the OCA cover.

OCA runs one kernel, on the compiled graph in dense-id space.  Its cover
must be byte-identical whether the request carries the mutable ``Graph``
or its ``CompiledGraph``, for every seed and worker count (inline or a
process pool), under ``fork`` (the pool inherits the graph) and ``spawn``
(the workers memory-map its ``.npy`` export), and for integer and string
labels.
"""

import pytest
from hypothesis import given, settings

from repro.core import LFKFitness, OCAConfig
from repro.errors import AlgorithmError
from repro.generators import LFRParams, daisy_tree, lfr_graph, ring_of_cliques
from repro.graph import Graph, compile_graph

from ..conftest import detect, edge_lists


@pytest.fixture(scope="module")
def daisy():
    return daisy_tree(flowers=5, seed=7).graph


@pytest.fixture(scope="module")
def ring():
    return ring_of_cliques(5, 6)[0]


@pytest.fixture(scope="module")
def lfr():
    return lfr_graph(LFRParams(n=300, mu=0.2), seed=5).graph


def oca(graph, seed, **params):
    return detect("oca", graph, seed=seed, **params)


def pooled(graph, method, start_method, **params):
    """OCA on the compiled ``graph`` under start method ``method``,
    checked to have shipped the graph the way that method implies."""
    start_method(method)
    result = oca(compile_graph(graph), **params)
    if params["workers"] == 1:
        assert result.engine_stats.shipping == "inline"
    elif method == "spawn":
        assert result.engine_stats.shipping == "mmap"
    else:
        assert result.engine_stats.shipping == "fork"
    return result


def assert_identical(reference, result):
    assert result.cover == reference.cover
    assert result.raw_cover == reference.raw_cover
    assert result.fitness_values == reference.fitness_values
    assert result.runs == reference.runs
    assert result.c == reference.c


class TestAcceptanceMatrix:
    """daisy/ring/LFR x workers {1 (inline), 2, 8 (process pools)} x
    start method {fork, spawn}, each from the compiled graph against the
    inline run from the ``Graph``."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_daisy_identical_covers(self, daisy, workers, method, start_method):
        reference = oca(daisy, seed=7, batch_size=16)
        result = pooled(
            daisy, method, start_method,
            seed=7, workers=workers, batch_size=16,
        )
        assert_identical(reference, result)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_ring_identical_covers(self, ring, workers, method, start_method):
        reference = oca(ring, seed=11, batch_size=16)
        result = pooled(
            ring, method, start_method,
            seed=11, workers=workers, batch_size=16,
        )
        assert_identical(reference, result)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_lfr_identical_covers(self, lfr, workers, method, start_method):
        reference = oca(lfr, seed=5, batch_size=32)
        result = pooled(
            lfr, method, start_method,
            seed=5, workers=workers, batch_size=32,
        )
        assert_identical(reference, result)


def _string_daisy():
    g = Graph()
    for flower in range(4):
        hub = f"hub{flower}"
        for petal in range(5):
            leaf = f"n{flower}.{petal}"
            g.add_edge(hub, leaf)
            g.add_edge(leaf, f"n{flower}.{(petal + 1) % 5}")
    for flower in range(4):
        g.add_edge(f"hub{flower}", f"hub{(flower + 1) % 4}")
    return g


class TestAblationMatrix:
    """The non-monotone ``LFKFitness`` objective on string labels x
    workers {1 (inline), 2, 8 (process pools)} x start method {fork,
    spawn}, each from the compiled graph against the inline run from the
    ``Graph``."""

    @pytest.fixture(scope="class")
    def graph(self):
        return _string_daisy()

    @pytest.fixture(scope="class")
    def reference(self, graph):
        return oca(graph, seed=5, fitness=LFKFitness(alpha=1.0), batch_size=8)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_string_daisy_identical_covers(
        self, graph, reference, workers, method, start_method
    ):
        result = pooled(
            graph, method, start_method,
            seed=5, fitness=LFKFitness(alpha=1.0), workers=workers, batch_size=8,
        )
        assert len(reference.cover) >= 1
        assert_identical(reference, result)


class TestGraphForms:
    def test_representation_is_not_a_knob(self, daisy):
        with pytest.raises(TypeError):
            OCAConfig(representation="csr")
        with pytest.raises(AlgorithmError, match="representation"):
            oca(daisy, seed=7, representation="csr")

    def test_non_monotone_fitness_runs_on_the_compiled_kernel(self, daisy):
        fitness = LFKFitness(alpha=1.0)
        reference = oca(daisy, seed=7, fitness=fitness, batch_size=8)
        result = oca(
            compile_graph(daisy), seed=7, fitness=fitness,
            workers=2, batch_size=8,
        )
        assert len(reference.cover) >= 1
        assert_identical(reference, result)

    def test_string_labelled_graph_identical(self):
        g = _string_daisy()
        reference = oca(g, seed=3, batch_size=4)
        result = oca(compile_graph(g), seed=3, batch_size=4)
        assert_identical(reference, result)
        assert reference.cover.covered_nodes() <= set(g.nodes())

    def test_seed_sweep_identical(self, ring):
        for seed in range(5):
            assert_identical(
                oca(ring, seed=seed), oca(compile_graph(ring), seed=seed)
            )


@settings(max_examples=15, deadline=None)
@given(edges=edge_lists(max_nodes=12, max_edges=36))
def test_random_graphs_identical_across_graph_form_and_workers(edges):
    """Covers agree under graph form x workers {1, 4} on random graphs."""
    g = Graph(edges=edges)
    if g.number_of_nodes() == 0:
        return
    results = [
        oca(form, seed=13, workers=workers, batch_size=4)
        for form in (g, compile_graph(g))
        for workers in (1, 4)
    ]
    baseline = results[0]
    for other in results[1:]:
        assert other.cover == baseline.cover
        assert other.raw_cover == baseline.raw_cover
        assert other.fitness_values == baseline.fitness_values
