"""The engine's headline guarantee: covers never depend on parallelism.

OCA at ``seed=S, workers=k`` must return an identical cover for any
worker count and any process start method — both at the default
``batch_size`` (1, the exact sequential semantics) and under real
speculative batching.
"""

import pytest

from repro.graph.shm import shm_available
from repro.generators import LFRParams, daisy_tree, lfr_graph, ring_of_cliques

from ..conftest import detect


@pytest.fixture(scope="module")
def daisy():
    return daisy_tree(flowers=5, seed=7).graph


@pytest.fixture(scope="module")
def ring():
    return ring_of_cliques(5, 6)[0]


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_daisy_same_cover_any_worker_count(self, daisy, workers):
        baseline = detect("oca", daisy, seed=7, batch_size=16)
        result = detect("oca", daisy, seed=7, workers=workers, batch_size=16)
        assert result.cover == baseline.cover
        assert result.raw_cover == baseline.raw_cover
        assert result.runs == baseline.runs

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_ring_same_cover_any_worker_count(self, ring, workers):
        baseline = detect("oca", ring, seed=11, batch_size=16)
        result = detect("oca", ring, seed=11, workers=workers, batch_size=16)
        assert result.cover == baseline.cover

    def test_default_batch_matches_plain_sequential(self, daisy):
        assert (
            detect("oca", daisy, seed=7, workers=8).cover
            == detect("oca", daisy, seed=7).cover
        )


class TestStartMethodInvariance:
    """Inline against a 2-worker pool, under ``fork`` (the context is
    inherited) and ``spawn`` (the graph ships through shared memory)."""

    @pytest.mark.parametrize("batch_size", [1, 8])
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_same_cover_inline_and_pool(
        self, daisy, method, batch_size, start_method, worker_attaches
    ):
        baseline = detect("oca", daisy, seed=7, batch_size=batch_size)
        start_method(method)
        result = detect("oca", daisy, seed=7, workers=2, batch_size=batch_size)
        assert result.cover == baseline.cover
        assert result.raw_cover == baseline.raw_cover
        assert result.fitness_values == baseline.fitness_values
        if method == "spawn" and shm_available():
            assert result.engine_stats.shipping == "shm"
            assert len(worker_attaches) == 1 and worker_attaches[0]

    def test_engine_stats_report_workers_and_shipping(self, daisy):
        pooled = detect("oca", daisy, seed=7, workers=2, batch_size=8)
        assert pooled.engine_stats.workers == 2
        assert pooled.engine_stats.shipping in ("pickle", "shm")
        inline = detect("oca", daisy, seed=7)
        assert inline.engine_stats.workers == 1
        assert inline.engine_stats.shipping == "inline"


class TestLFRInvariance:
    def test_lfr_cover_invariant_under_parallelism(self):
        graph = lfr_graph(LFRParams(n=300, mu=0.2), seed=5).graph
        baseline = detect("oca", graph, seed=5, batch_size=32)
        parallel = detect("oca", graph, seed=5, workers=8, batch_size=32)
        assert parallel.cover == baseline.cover

    def test_repeated_parallel_runs_identical(self, daisy):
        a = detect("oca", daisy, seed=3, workers=4, batch_size=8)
        b = detect("oca", daisy, seed=3, workers=4, batch_size=8)
        assert a.cover == b.cover
        assert a.c == pytest.approx(b.c)
