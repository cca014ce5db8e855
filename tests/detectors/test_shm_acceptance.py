"""Acceptance matrix: covers are shipping-invariant.

The zero-copy contract: for every registered detector, on integer- and
string-labelled graphs, the cover for a given (graph, seed, batch_size)
is **byte-identical** whether the compiled graph reaches process
workers by pickle (a ``fork`` pool) or by shared memory (a ``spawn``
pool) — across batch sizes {1, 8, 64}.  Shipping follows the start
method and, like ``workers``, only changes wall-clock, never results.

The baselines ignore the engine entirely, so their rows are
trivially invariant — pinned anyway, because the matrix is the
regression net for "a detector grew an accidental shipping
dependency".
"""

import os

import pytest

from repro import DetectionRequest, ExecutionEngine, Graph, get_detector
from repro.generators import ring_of_cliques
from repro.graph.shm import SEGMENT_PREFIX, live_segment_names, shm_available

DETECTORS = ("oca", "lfk", "cfinder", "cpm")
BATCH_SIZES = (1, 8, 64)
SEED = 29

pytestmark = pytest.mark.skipif(
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


@pytest.fixture(scope="module")
def int_graph():
    g, _ = ring_of_cliques(4, 5)
    return g


@pytest.fixture(scope="module")
def str_graph(int_graph):
    mapping = {node: f"n{node}" for node in int_graph.nodes()}
    g = Graph(nodes=(mapping[node] for node in int_graph.nodes()))
    for u, v in int_graph.edges():
        g.add_edge(mapping[u], mapping[v])
    return g


def _detect(name, graph, batch_size):
    params = {"batch_size": batch_size} if name == "oca" else {}
    with ExecutionEngine(workers=2) as engine:
        request = DetectionRequest(
            graph=graph, seed=SEED, params=params, engine=engine
        )
        return get_detector(name).detect(request)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("labels", ["int", "str"])
@pytest.mark.parametrize("name", DETECTORS)
def test_cover_is_shipping_invariant(
    name, labels, batch_size, int_graph, str_graph, start_method, worker_attaches
):
    graph = int_graph if labels == "int" else str_graph
    start_method("fork")
    pickled = _detect(name, graph, batch_size)
    start_method("spawn")
    shipped = _detect(name, graph, batch_size)
    assert shipped.cover == pickled.cover
    if name == "oca":
        # Only OCA runs on the engine: its spawn pool's worker attached.
        assert pickled.engine_stats.shipping == "pickle"
        assert shipped.engine_stats.shipping == "shm"
        assert [bool(names) for names in worker_attaches] == [False, True]
    else:
        assert worker_attaches == []
    # Every closed engine must have unlinked its export on the way out.
    assert not live_segment_names()


def test_no_dev_shm_leak_across_the_matrix():
    """Runs after the matrix (file order): nothing left in /dev/shm."""
    assert not _dev_shm_entries()


class TestSessionLifecycle:
    """Session/manager teardown owns the segments."""

    def test_session_close_unlinks_segments(
        self, int_graph, start_method, worker_attaches
    ):
        from repro import GraphSession

        start_method("spawn")
        before = _dev_shm_entries()
        session = GraphSession(int_graph.copy(), workers=2)
        try:
            session.detect("oca", seed=SEED, batch_size=4)
            # The session pool's export is live while the session is.
            exported = _dev_shm_entries() - before
            assert exported
        finally:
            session.close()
        assert len(worker_attaches) == 1
        assert worker_attaches[0] and worker_attaches[0] <= exported
        assert _dev_shm_entries() == before
        assert not live_segment_names()

    def test_eviction_unlinks_the_victims_segments(
        self, int_graph, start_method, worker_attaches
    ):
        from repro import SessionManager

        start_method("spawn")
        other, _ = ring_of_cliques(5, 4)
        before = _dev_shm_entries()
        with SessionManager(max_sessions=1, workers=2) as manager:
            manager.detect(int_graph, "oca", seed=SEED, batch_size=4)
            # Binding a second graph evicts the first; the victim's
            # engine is closed (workers joined) and its export unlinked.
            manager.detect(other, "oca", seed=SEED, batch_size=4)
            assert manager.stats.evictions == 1
        # Both sessions' pools had a worker attached to their export.
        assert len(worker_attaches) == 2 and all(worker_attaches)
        assert _dev_shm_entries() == before
        assert not live_segment_names()
