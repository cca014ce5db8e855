"""Graph shipping to process workers: shm vs pickle, batched dispatch."""

import os

import pytest

from repro.core.config import OCAConfig
from repro.core.oca import OCA
from repro.engine import ExecutionEngine
from repro.engine.backends import SerialBackend, _chunk
from repro.errors import ConfigurationError
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


def _cover(graph, shipping, batch_size, backend="process", workers=2):
    config = OCAConfig(
        workers=workers,
        backend=backend,
        batch_size=batch_size,
        shipping=shipping,
    )
    return OCA(config).run(compile_graph(graph), seed=7)


class TestShippingModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="shipping"):
            ExecutionEngine(shipping="carrier-pigeon")
        with pytest.raises(ConfigurationError, match="shipping"):
            OCAConfig(shipping="carrier-pigeon")

    def test_serial_backend_ships_inline(self, graph):
        result = _cover(graph, "auto", 1, backend="serial", workers=1)
        assert result.engine_stats.shipping == "inline"
        assert "ship=inline" in result.engine_stats.summary()

    @needs_shm
    def test_pickle_and_shm_covers_are_identical(self, graph):
        for batch_size in (1, 8):
            pickled = _cover(graph, "pickle", batch_size)
            shipped = _cover(graph, "shm", batch_size)
            assert pickled.engine_stats.shipping == "pickle"
            assert shipped.engine_stats.shipping == "shm"
            assert shipped.cover == pickled.cover
            assert shipped.raw_cover == pickled.raw_cover

    @needs_shm
    def test_shm_matches_the_serial_reference(self, graph):
        serial = _cover(graph, "auto", 8, backend="serial", workers=1)
        shipped = _cover(graph, "shm", 8)
        assert shipped.cover == serial.cover

    @needs_shm
    def test_shm_ships_a_plain_graph_request(self, graph):
        """A ``Graph`` request is compiled on the way in, so shm shipping
        needs no compiled input from the caller."""
        from ..conftest import detect

        shipped = detect(
            "oca", graph, seed=7,
            workers=2, backend="process", batch_size=8, shipping="shm",
        )
        assert shipped.engine_stats.shipping == "shm"
        assert shipped.cover == _cover(graph, "pickle", 8).cover

    @needs_shm
    def test_ephemeral_run_leaves_no_segments(self, graph):
        before = _dev_shm_entries()
        _cover(graph, "shm", 4)
        assert _dev_shm_entries() == before
        assert not live_segment_names()


@needs_shm
class TestPersistentEngineLifecycle:
    def test_close_releases_segments_after_joining_workers(self, graph):
        from repro.core.fitness import DirectedLaplacianFitness
        from repro.core.halting import StagnationHalting
        from repro.core.seeding import make_seeding

        before = _dev_shm_entries()
        engine = ExecutionEngine(
            backend="process", workers=2, batch_size=4,
            shipping="shm", persistent=True,
        )
        try:
            engine.run(
                compile_graph(graph),
                fitness=DirectedLaplacianFitness(0.25),
                seeding=make_seeding("uncovered"),
                halting=StagnationHalting(patience=20),
                seed=7,
            )
            assert engine._pool_shipping == "shm"
            assert _dev_shm_entries() - before
        finally:
            engine.close()
        assert _dev_shm_entries() == before
        assert not live_segment_names()


class TestBatchedDispatch:
    def test_chunk_is_contiguous_and_complete(self):
        items = list(range(10))
        chunks = list(_chunk(items, 4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        with pytest.raises(ConfigurationError):
            list(_chunk(items, 0))

    def test_map_ordered_batched_preserves_order(self):
        backend = SerialBackend()
        try:
            result = backend.map_ordered_batched(
                lambda chunk: [x * 2 for x in chunk], list(range(7)), 3
            )
        finally:
            backend.close()
        assert result == [0, 2, 4, 6, 8, 10, 12]

    def test_worker_calls_counted(self, graph):
        result = _cover(graph, "auto", 8, backend="serial", workers=1)
        stats = result.engine_stats
        assert stats.worker_calls >= 1
        assert stats.worker_calls <= stats.tasks_dispatched

    def test_process_backend_worker_calls_below_task_count(self, graph):
        result = _cover(graph, "pickle", 8)
        stats = result.engine_stats
        # Chunking must actually batch: strictly fewer dispatches than
        # tasks whenever a batch carries more than one task.
        assert 0 < stats.worker_calls < stats.tasks_dispatched
