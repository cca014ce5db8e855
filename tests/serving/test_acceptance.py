"""Serving acceptance matrix (ISSUE 4).

The tentpole contract: covers served through ``SessionManager`` and
``ServingQueue`` are **byte-identical** to direct
``GraphSession.detect`` for the same (graph, seed, algorithm), for all
four registered detectors and both int- and str-labelled graphs — and
warm manager hits perform no graph compilation and no spectral solve
(monkeypatch-proof, the same guard as
``tests/detectors/test_session.py``).
"""

import pytest

from repro import Graph, GraphSession, ServingQueue, SessionManager
from repro.generators import ring_of_cliques

DETECTORS = ("oca", "lfk", "cfinder", "cpm")
SEED = 41


@pytest.fixture(scope="module")
def int_graph():
    g, _ = ring_of_cliques(4, 5)
    return g


@pytest.fixture(scope="module")
def str_graph(int_graph):
    """The same structure with string labels, same construction order."""
    mapping = {node: f"n{node}" for node in int_graph.nodes()}
    g = Graph(nodes=(mapping[node] for node in int_graph.nodes()))
    for u, v in int_graph.edges():
        g.add_edge(mapping[u], mapping[v])
    return g


@pytest.fixture(scope="module", params=["int", "str"])
def graph(request, int_graph, str_graph):
    return int_graph if request.param == "int" else str_graph


@pytest.fixture(scope="module")
def direct(graph):
    """Direct GraphSession covers — the serving layer's ground truth."""
    covers = {}
    with GraphSession(graph) as session:
        for name in DETECTORS:
            result = session.detect(name, seed=SEED)
            covers[name] = (result.cover, result.raw_cover if name == "oca" else None)
    return covers


@pytest.mark.parametrize("name", DETECTORS)
class TestServedCoversAreByteIdentical:
    def test_manager_serves_identical_covers(self, graph, direct, name):
        with SessionManager(max_sessions=2) as manager:
            manager.detect(graph, name, seed=SEED + 1)  # warm every cache
            warm = manager.detect(graph, name, seed=SEED)
        assert warm.stats["session_hit"] is True
        assert warm.cover == direct[name][0]
        if name == "oca":
            assert warm.raw_cover == direct[name][1]

    def test_queue_serves_identical_covers(self, graph, direct, name):
        with SessionManager(max_sessions=2) as manager:
            with ServingQueue(manager, workers=2, max_depth=16) as queue:
                futures = [
                    queue.detect(graph, name, seed=SEED) for _ in range(3)
                ]
                covers = [future.result(timeout=60).cover for future in futures]
        assert all(cover == direct[name][0] for cover in covers)


def test_warm_manager_hits_skip_compile_and_spectral_solves(
    int_graph, monkeypatch
):
    """Monkeypatch-proof warm path: after the first detect per graph,
    no CSR build and no spectral solve (power *or* Lanczos) may run."""
    other, _ = ring_of_cliques(5, 4)
    with SessionManager(max_sessions=2) as manager:
        manager.detect(int_graph, "oca", seed=0)
        manager.detect(other, "oca", seed=0)

        def no_compile(*args, **kwargs):
            raise AssertionError("compile_graph ran on a warm manager hit")

        def no_power_method(*args, **kwargs):
            raise AssertionError("power method ran on a warm manager hit")

        def no_lanczos(*args, **kwargs):
            raise AssertionError("eigsh ran on a warm manager hit")

        monkeypatch.setattr("repro.graph.csr._build_csr", no_compile)
        monkeypatch.setattr("repro.core.spectral.power_method", no_power_method)
        monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_lanczos)

        for seed in (1, 2):
            for g in (int_graph, other):
                result = manager.detect(g, "oca", seed=seed)
                assert result.stats["session_hit"] is True
                assert result.stats["c_source"] == "cache"
                assert len(result.cover) >= 1


def test_power_after_lanczos_on_a_warm_session_matches_a_cold_power_run():
    """Each solver has its own cache slot, so a power-method request on
    a session that Lanczos warmed solves its own ``c`` and returns the
    cover a cold power-method one-shot returns."""
    with GraphSession(ring_of_cliques(4, 5)[0]) as session:
        cold_power = session.detect("oca", seed=1, spectral_solver="power")
    graph, _ = ring_of_cliques(4, 5)
    with SessionManager(max_sessions=1) as manager:
        lanczos = manager.detect(graph, "oca", seed=1)
        power = manager.detect(graph, "oca", seed=1, spectral_solver="power")
        again = manager.detect(graph, "oca", seed=2, spectral_solver="power")
    assert lanczos.stats["c_source"] == "lanczos"
    assert power.stats["session_hit"] is True
    assert power.stats["c_source"] == "power_method"
    assert again.stats["c_source"] == "cache"
    # The two solvers' values differ in the low bits: a shared slot
    # would have handed the power request the Lanczos value.
    assert lanczos.c != cold_power.c
    assert power.c == again.c == cold_power.c
    assert power.cover == cold_power.cover
    assert power.raw_cover == cold_power.raw_cover
