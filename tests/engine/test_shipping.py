"""Graph shipping to process workers: the start method picks shm or
pickle; batched dispatch."""

import os

import pytest

from repro.core.config import OCAConfig
from repro.core.oca import OCA
from repro.engine import ExecutionEngine
from repro.generators import ring_of_cliques
from repro.graph import compile_graph
from repro.graph.shm import SEGMENT_PREFIX, live_segment_names, shm_available

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)


def _dev_shm_entries():
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture()
def graph():
    g, _ = ring_of_cliques(4, 5)
    return g


def _cover(graph, batch_size, workers=2):
    """OCA on an engine of ``workers`` that is closed on return."""
    with ExecutionEngine(workers) as engine:
        return OCA(OCAConfig(batch_size=batch_size)).run(
            compile_graph(graph), seed=7, engine=engine
        )


class TestShippingRule:
    @needs_shm
    def test_one_worker_inline_fork_pickle_otherwise_shm(self, graph, start_method):
        """``workers=1`` runs inline whatever the start method; a pool
        pickles under ``fork`` and ships shm under any other method."""
        start_method("spawn")
        assert _cover(graph, 1, workers=1).engine_stats.shipping == "inline"
        assert _cover(graph, 8).engine_stats.shipping == "shm"
        start_method("fork")
        assert _cover(graph, 1, workers=1).engine_stats.shipping == "inline"
        assert _cover(graph, 8).engine_stats.shipping == "pickle"

    def test_one_worker_ships_inline(self, graph):
        result = _cover(graph, 1, workers=1)
        assert result.engine_stats.shipping == "inline"
        assert "ship=inline" in result.engine_stats.summary()


@needs_shm
class TestSharedMemoryPool:
    """A non-``fork`` pool: workers attach to the driver's export."""

    def test_fork_and_shm_covers_are_identical(
        self, graph, start_method, worker_attaches
    ):
        for batch_size in (1, 8):
            start_method("fork")
            pickled = _cover(graph, batch_size)
            start_method("spawn")
            shipped = _cover(graph, batch_size)
            assert pickled.engine_stats.shipping == "pickle"
            assert shipped.engine_stats.shipping == "shm"
            assert shipped.cover == pickled.cover
            assert shipped.raw_cover == pickled.raw_cover
        # Fork pools export nothing; each spawn pool's worker attached.
        assert [bool(names) for names in worker_attaches] == [False, True] * 2

    def test_shm_matches_the_inline_reference(
        self, graph, start_method, worker_attaches
    ):
        start_method("spawn")
        inline = _cover(graph, 8, workers=1)
        shipped = _cover(graph, 8)
        assert shipped.engine_stats.shipping == "shm"
        assert shipped.cover == inline.cover
        assert len(worker_attaches) == 1 and worker_attaches[0]

    def test_shm_ships_a_plain_graph_request(
        self, graph, start_method, worker_attaches
    ):
        """A ``Graph`` request is compiled on the way in, so shm shipping
        needs no compiled input from the caller."""
        from ..conftest import detect

        reference = _cover(graph, 8, workers=1)
        start_method("spawn")
        shipped = detect("oca", graph, seed=7, workers=2, batch_size=8)
        assert shipped.engine_stats.shipping == "shm"
        assert shipped.cover == reference.cover
        assert worker_attaches[0]

    def test_closed_engine_leaves_no_segments(self, graph, start_method):
        start_method("spawn")
        before = _dev_shm_entries()
        assert _cover(graph, 4).engine_stats.shipping == "shm"
        assert _dev_shm_entries() == before
        assert not live_segment_names()


@needs_shm
class TestEngineLifecycle:
    def test_close_releases_segments_after_joining_workers(
        self, graph, start_method, worker_attaches
    ):
        from repro.core.fitness import DirectedLaplacianFitness
        from repro.core.halting import StagnationHalting
        from repro.core.seeding import make_seeding

        start_method("spawn")
        before = _dev_shm_entries()
        engine = ExecutionEngine(workers=2)
        try:
            outcome = engine.run(
                compile_graph(graph),
                fitness=DirectedLaplacianFitness(0.25),
                seeding=make_seeding("uncovered"),
                halting=StagnationHalting(patience=20),
                seed=7,
                batch_size=4,
            )
            assert outcome.engine_stats.shipping == "shm"
            exported = _dev_shm_entries() - before
            assert exported
        finally:
            engine.close()
        # The worker was attached to the export right up to the close.
        assert worker_attaches == [worker_attaches[0]]
        assert worker_attaches[0] and worker_attaches[0] <= exported
        assert _dev_shm_entries() == before
        assert not live_segment_names()


class TestBatchedDispatch:
    def test_worker_calls_counted(self, graph):
        # Inline runs make no worker call at all.
        result = _cover(graph, 8, workers=1)
        stats = result.engine_stats
        assert stats.tasks_dispatched > 0
        assert stats.worker_calls == 0

    def test_process_pool_worker_calls_below_task_count(self, graph):
        result = _cover(graph, 8)
        stats = result.engine_stats
        # Chunking must actually batch: strictly fewer dispatches than
        # tasks whenever a batch carries more than one task.
        assert 0 < stats.worker_calls < stats.tasks_dispatched
