"""Graph shipping to process workers: the start method picks fork
inheritance or memory-mapped ``.npy`` files; batched dispatch."""

import errno
import os

import pytest

from repro.core.config import OCAConfig
from repro.core.oca import OCA
from repro.engine import ExecutionEngine, engine
from repro.generators import ring_of_cliques
from repro.graph import compile_graph

from ..conftest import graph_exports


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
    def test_one_worker_inline_fork_inherits_otherwise_mmap(
        self, graph, start_method
    ):
        """``workers=1`` runs inline whatever the start method; a pool
        inherits the graph under ``fork`` and maps its ``.npy`` export
        under any other method."""
        start_method("spawn")
        assert _cover(graph, 1, workers=1).engine_stats.shipping == "inline"
        assert _cover(graph, 8).engine_stats.shipping == "mmap"
        start_method("fork")
        assert _cover(graph, 1, workers=1).engine_stats.shipping == "inline"
        assert _cover(graph, 8).engine_stats.shipping == "fork"

    def test_one_worker_ships_inline(self, graph):
        result = _cover(graph, 1, workers=1)
        assert result.engine_stats.shipping == "inline"
        assert "ship=inline" in result.engine_stats.summary()


class TestMappedPool:
    """A non-``fork`` pool: workers map the driver's export."""

    def test_fork_and_mmap_covers_are_identical(
        self, graph, start_method, worker_attaches
    ):
        for batch_size in (1, 8):
            start_method("fork")
            inherited = _cover(graph, batch_size)
            start_method("spawn")
            shipped = _cover(graph, batch_size)
            assert inherited.engine_stats.shipping == "fork"
            assert shipped.engine_stats.shipping == "mmap"
            assert shipped.cover == inherited.cover
            assert shipped.raw_cover == inherited.raw_cover
        # Fork pools export nothing; each spawn pool's worker mapped it.
        assert [bool(paths) for paths in worker_attaches] == [False, True] * 2

    def test_mmap_matches_the_inline_reference(
        self, graph, start_method, worker_attaches
    ):
        start_method("spawn")
        inline = _cover(graph, 8, workers=1)
        shipped = _cover(graph, 8)
        assert shipped.engine_stats.shipping == "mmap"
        assert shipped.cover == inline.cover
        assert len(worker_attaches) == 1 and worker_attaches[0]

    def test_mmap_ships_a_plain_graph_request(
        self, graph, start_method, worker_attaches
    ):
        """A ``Graph`` request is compiled on the way in, so the export
        needs no compiled input from the caller."""
        from ..conftest import detect

        reference = _cover(graph, 8, workers=1)
        start_method("spawn")
        shipped = detect("oca", graph, seed=7, workers=2, batch_size=8)
        assert shipped.engine_stats.shipping == "mmap"
        assert shipped.cover == reference.cover
        assert worker_attaches[0]

    def test_closed_engine_leaves_no_export(self, graph, start_method):
        start_method("spawn")
        before = graph_exports()
        assert _cover(graph, 4).engine_stats.shipping == "mmap"
        assert graph_exports() == before

    def test_a_failed_export_ships_pickle_and_keeps_the_cover(
        self, graph, start_method, monkeypatch
    ):
        """An export that fails with ``OSError`` (a full disk, say) is
        bypassed: the pool pickles the graph into its workers, and the
        run neither fails nor changes its cover."""

        def full_disk(compiled, directory):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(engine, "save_csr", full_disk)
        start_method("spawn")
        before = graph_exports()
        shipped = _cover(graph, 8)
        assert shipped.engine_stats.shipping == "pickle"
        assert shipped.cover == _cover(graph, 8, workers=1).cover
        assert graph_exports() == before


class TestEngineLifecycle:
    def test_close_removes_the_export_after_joining_workers(
        self, graph, start_method, worker_attaches
    ):
        from repro.core.fitness import DirectedLaplacianFitness
        from repro.core.halting import StagnationHalting
        from repro.core.seeding import make_seeding

        start_method("spawn")
        before = graph_exports()
        pool_engine = ExecutionEngine(workers=2)
        try:
            outcome = pool_engine.run(
                compile_graph(graph),
                fitness=DirectedLaplacianFitness(0.25),
                seeding=make_seeding("uncovered"),
                halting=StagnationHalting(patience=20),
                seed=7,
                batch_size=4,
            )
            assert outcome.engine_stats.shipping == "mmap"
            (exported,) = graph_exports() - before
        finally:
            pool_engine.close()
        # The worker had the export mapped right up to the close.
        assert worker_attaches == [worker_attaches[0]]
        assert {os.path.dirname(path) for path in worker_attaches[0]} == {exported}
        assert graph_exports() == before


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
