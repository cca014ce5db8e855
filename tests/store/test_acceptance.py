"""Store acceptance matrix (ISSUE 8).

The persistence contract: covers served from a **store-loaded** graph
are byte-identical to covers from a freshly compiled one, for all four
registered detectors and both int- and str-labelled graphs — and a
store-warm session runs neither the CSR build nor any spectral solve
(the PR 4 monkeypatch guard, extended across a simulated restart).
"""

import json

import pytest

from repro import Graph, GraphSession, GraphStore, SessionManager
from repro.errors import ServingError
from repro.generators import ring_of_cliques
from repro.store import STORE_FORMAT_VERSION

DETECTORS = ("oca", "lfk", "cfinder", "cpm")
SEED = 41


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


@pytest.fixture(scope="module", params=["int", "str"])
def graph(request, int_graph, str_graph):
    return int_graph if request.param == "int" else str_graph


@pytest.fixture(scope="module")
def direct(graph):
    """Freshly compiled covers — the persistence layer's ground truth."""
    covers = {}
    with GraphSession(graph) as session:
        for name in DETECTORS:
            result = session.detect(name, seed=SEED)
            covers[name] = (
                result.cover,
                result.raw_cover if name == "oca" else None,
            )
    return covers


@pytest.fixture(scope="module")
def stored(graph, tmp_path_factory):
    """A store holding the graph's compiled artifacts, plus its key."""
    store = GraphStore(tmp_path_factory.mktemp("store"))
    with SessionManager(max_sessions=1, store=store) as manager:
        manager.detect(graph, "oca", seed=SEED)  # compile + solve + save
        fingerprint = manager.fingerprint(graph)
    return store, fingerprint


@pytest.mark.parametrize("name", DETECTORS)
def test_store_loaded_covers_are_byte_identical(stored, direct, name):
    store, fingerprint = stored
    loaded = store.load(fingerprint)
    assert loaded is not None
    with GraphSession(loaded) as session:
        result = session.detect(name, seed=SEED)
    assert result.cover == direct[name][0]
    if name == "oca":
        assert result.raw_cover == direct[name][1]


@pytest.mark.parametrize("name", DETECTORS)
def test_manager_restart_serves_identical_covers_from_the_store(
    stored, direct, name
):
    store, fingerprint = stored
    with SessionManager(max_sessions=1, store=store) as manager:
        result = manager.detect(fingerprint, name, seed=SEED)
    assert result.stats["session_source"] == "store"
    assert result.cover == direct[name][0]


def test_store_warm_sessions_skip_compile_and_spectral_solves(
    int_graph, tmp_path, monkeypatch
):
    """Monkeypatch-proof: binding from the store across a simulated
    restart runs neither ``_build_csr`` nor a spectral solver."""
    store = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=store) as manager:
        baseline = manager.detect(int_graph, "oca", seed=SEED)
        fingerprint = manager.fingerprint(int_graph)

    def no_compile(*args, **kwargs):
        raise AssertionError("_build_csr ran on a store-warm session")

    def no_power_method(*args, **kwargs):
        raise AssertionError("power method ran on a store-warm session")

    def no_lanczos(*args, **kwargs):
        raise AssertionError("eigsh ran on a store-warm session")

    monkeypatch.setattr("repro.graph.csr._build_csr", no_compile)
    monkeypatch.setattr("repro.core.spectral.power_method", no_power_method)
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_lanczos)

    # Fresh manager over the same store directory: the restart. The
    # request targets the bare fingerprint, so nothing can recompile.
    store2 = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=store2) as manager:
        result = manager.detect(fingerprint, "oca", seed=SEED)
        assert result.stats["session_source"] == "store"
        assert result.stats["c_source"] == "cache"
        assert result.cover == baseline.cover
        # Second request on the now-resident session is plain warm.
        again = manager.detect(fingerprint, "oca", seed=SEED)
        assert again.stats["session_source"] == "warm"
        assert again.cover == baseline.cover


def test_prewarmed_manager_first_request_is_store_sourced(
    int_graph, tmp_path
):
    from repro import StoreWarmer

    store = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=2, store=store) as manager:
        baseline = manager.detect(int_graph, "oca", seed=SEED)
        fingerprint = manager.fingerprint(int_graph)

    store2 = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=2, store=store2) as manager:
        warmed = StoreWarmer(store2, manager).warm()
        assert warmed == [fingerprint]
        assert manager.stats.prewarmed == 1
        result = manager.detect(fingerprint, "oca", seed=SEED)
        # Bound before the request, but the *first* serve still reports
        # where the session came from — the CI restart-smoke contract.
        assert result.stats["session_hit"] is True
        assert result.stats["session_source"] == "store"
        assert result.cover == baseline.cover


@pytest.mark.parametrize("labels", ["str", "shifted-int"])
def test_restored_c_is_used_on_graphs_whose_labels_are_not_the_identity(
    int_graph, str_graph, tmp_path, monkeypatch, labels
):
    """Detectors run a labelled graph through its identity view, which
    shares the parent's spectral cache: the ``c`` solved there is saved
    with the entry, and after a restart it is read instead of solved."""
    if labels == "str":
        graph = str_graph.copy()
    else:
        graph = Graph(nodes=(node + 1000 for node in int_graph.nodes()))
        for u, v in int_graph.edges():
            graph.add_edge(u + 1000, v + 1000)
    store = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=store) as manager:
        baseline = manager.detect(graph, "oca", seed=SEED)
        fingerprint = manager.fingerprint(graph)
    assert baseline.stats["c_source"] == "lanczos"
    assert store.manifest(fingerprint)["spectral"] == [
        ["lanczos", 1e-6, 10000, baseline.c]
    ]

    def no_power_method(*args, **kwargs):
        raise AssertionError("power method ran on a store-restored graph")

    def no_lanczos(*args, **kwargs):
        raise AssertionError("eigsh ran on a store-restored graph")

    monkeypatch.setattr("repro.core.spectral.power_method", no_power_method)
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_lanczos)
    restarted = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=restarted) as manager:
        result = manager.detect(fingerprint, "oca", seed=SEED)
    assert result.stats["session_source"] == "store"
    assert result.stats["c_source"] == "cache"
    assert result.c == baseline.c
    assert result.cover == baseline.cover


def test_a_format_1_entry_is_recompiled_never_served(int_graph, tmp_path):
    """A version-1 manifest carries a ``c`` without its solver.  It takes
    the mismatch path: discarded with a warning, recompiled, re-saved as
    the current version — never served, not even its ``c``."""
    graph = int_graph.copy()
    store = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=store) as manager:
        baseline = manager.detect(graph, "oca", seed=SEED)
        fingerprint = manager.fingerprint(graph)
    path = store.root / fingerprint[:2] / f"{fingerprint}.json"
    manifest = json.loads(path.read_text())
    manifest["format_version"] = 1
    manifest["spectral"] = [[1e-6, 10000, 0.25]]  # a poisoned v1 c
    path.write_text(json.dumps(manifest))

    restarted = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=restarted) as manager:
        with pytest.warns(RuntimeWarning, match="format version 1"):
            with pytest.raises(ServingError):
                manager.detect(fingerprint, "oca", seed=SEED)
    path.write_text(json.dumps(manifest))  # the discard unlinked it

    store2 = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=store2) as manager:
        with pytest.warns(RuntimeWarning, match="format version 1"):
            result = manager.detect(int_graph.copy(), "oca", seed=SEED)
    assert result.stats["session_source"] == "compiled"
    assert result.stats["c_source"] == "lanczos"
    assert result.c == baseline.c != 0.25
    assert result.cover == baseline.cover
    assert store2.stats.corrupt == 1
    assert store2.manifest(fingerprint)["format_version"] == STORE_FORMAT_VERSION
