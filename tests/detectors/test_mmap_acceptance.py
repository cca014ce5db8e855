"""Acceptance matrix: covers are shipping-invariant.

The zero-copy contract: for every registered detector, on integer- and
string-labelled graphs, the cover for a given (graph, seed, batch_size)
is **byte-identical** whether process workers inherit the compiled
graph (a ``fork`` pool) or memory-map its ``.npy`` export (a ``spawn``
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

from ..conftest import graph_exports

DETECTORS = ("oca", "lfk", "cfinder", "cpm")
BATCH_SIZES = (1, 8, 64)
SEED = 29

#: Export directories that existed before this module's first test.
_BEFORE = graph_exports()


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
    before = graph_exports()
    start_method("fork")
    inherited = _detect(name, graph, batch_size)
    start_method("spawn")
    shipped = _detect(name, graph, batch_size)
    assert shipped.cover == inherited.cover
    if name == "oca":
        # Only OCA runs on the engine: its spawn pool's worker mapped.
        assert inherited.engine_stats.shipping == "fork"
        assert shipped.engine_stats.shipping == "mmap"
        assert [bool(paths) for paths in worker_attaches] == [False, True]
    else:
        assert worker_attaches == []
    # Every closed engine must have removed its export on the way out.
    assert graph_exports() == before


def test_no_export_left_across_the_matrix():
    """Runs after the matrix (file order): no export directory left."""
    assert graph_exports() == _BEFORE


def _exported_dirs(paths):
    return {os.path.dirname(path) for path in paths}


class TestSessionLifecycle:
    """Session/manager teardown owns the export."""

    def test_session_close_removes_the_export(
        self, int_graph, start_method, worker_attaches
    ):
        from repro import GraphSession

        start_method("spawn")
        before = graph_exports()
        session = GraphSession(int_graph.copy(), workers=2)
        try:
            session.detect("oca", seed=SEED, batch_size=4)
            # The session pool's export lives as long as the pool.
            exported = graph_exports() - before
            assert len(exported) == 1
        finally:
            session.close()
        assert len(worker_attaches) == 1
        assert _exported_dirs(worker_attaches[0]) == exported
        assert graph_exports() == before

    def test_eviction_removes_the_victims_export(
        self, int_graph, start_method, worker_attaches
    ):
        from repro import SessionManager

        start_method("spawn")
        other, _ = ring_of_cliques(5, 4)
        before = graph_exports()
        with SessionManager(max_sessions=1, workers=2) as manager:
            manager.detect(int_graph, "oca", seed=SEED, batch_size=4)
            (first,) = graph_exports() - before
            # Binding a second graph evicts the first; the victim's
            # engine is closed (workers joined) and its export removed.
            manager.detect(other, "oca", seed=SEED, batch_size=4)
            assert manager.stats.evictions == 1
            assert first not in graph_exports()
        # Both sessions' pools had a worker mapping their own export.
        assert len(worker_attaches) == 2 and all(worker_attaches)
        assert _exported_dirs(worker_attaches[0]) == {first}
        assert graph_exports() == before
