"""Baseline graph-form matrix.

Every baseline detector runs one kernel, on the compiled graph in
dense-id space, and must return covers **byte-identical** for ``Graph``
and ``CompiledGraph`` input — on int- and str-labelled graphs, one-shot,
through a warm :class:`GraphSession`, and served from a store-loaded
session — without touching the dict :class:`~repro.graph.Graph`
adjacency once the graph is compiled.
"""

import pytest

from repro import (
    DetectionRequest,
    Graph,
    GraphSession,
    GraphStore,
    SessionManager,
    compile_graph,
    get_detector,
)
from repro.generators import ring_of_cliques

BASELINES = ("lfk", "cfinder", "cpm", "modularity_greedy")
ALL_DETECTORS = ("oca",) + BASELINES
SEED = 53


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
def reference_covers(graph):
    """One-shot covers from the ``Graph`` form (pinned by the goldens)."""
    return {
        name: get_detector(name).detect(
            DetectionRequest(graph=graph, seed=SEED)
        ).cover
        for name in BASELINES
    }


@pytest.mark.parametrize("name", BASELINES)
class TestGraphFormMatrix:
    def test_one_shot_on_compiled_graph(self, graph, reference_covers, name):
        result = get_detector(name).detect(
            DetectionRequest(graph=compile_graph(graph), seed=SEED)
        )
        # Compiled input must come back in the original label space.
        assert result.cover == reference_covers[name]

    @pytest.mark.parametrize("form", ["graph", "compiled"])
    def test_warm_session(self, graph, reference_covers, name, form):
        bound = graph if form == "graph" else compile_graph(graph)
        with GraphSession(bound) as session:
            session.detect(name, seed=SEED + 1)  # warm every cache
            result = session.detect(name, seed=SEED)
        assert result.cover == reference_covers[name]

    @pytest.mark.parametrize("form", ["graph", "compiled"])
    def test_store_loaded_session(
        self, graph, reference_covers, name, form, tmp_path
    ):
        bound = graph if form == "graph" else compile_graph(graph)
        store = GraphStore(tmp_path / "store")
        with SessionManager(max_sessions=1, store=store) as manager:
            manager.detect(bound, name, seed=SEED)  # compile + save
            fingerprint = manager.fingerprint(bound)
        # Fresh manager over the same directory: the restart.
        with SessionManager(
            max_sessions=1, store=GraphStore(tmp_path / "store")
        ) as manager:
            result = manager.detect(fingerprint, name, seed=SEED)
        assert result.stats["session_source"] == "store"
        assert result.cover == reference_covers[name]


def test_representation_is_not_a_request_field(int_graph):
    with pytest.raises(TypeError):
        DetectionRequest(graph=int_graph, representation="csr")


@pytest.mark.parametrize(
    "layer", ["session", "manager", "service", "run_algorithm"]
)
def test_representation_is_not_an_option_of_any_layer(int_graph, layer):
    from repro.experiments import run_algorithm
    from repro.serving import ServingService

    build = {
        "session": lambda: GraphSession(int_graph, representation="csr"),
        "manager": lambda: SessionManager(representation="csr"),
        "service": lambda: ServingService(representation="csr"),
        "run_algorithm": lambda: run_algorithm(
            "oca", int_graph, seed=SEED, representation="csr"
        ),
    }[layer]
    with pytest.raises(TypeError, match="representation"):
        build()


@pytest.mark.parametrize("name", ALL_DETECTORS)
def test_detectors_never_read_dict_adjacency(int_graph, monkeypatch, name):
    """Monkeypatch-proof: with the graph pre-compiled, every detector
    runs without a single ``Graph.neighbors`` call."""
    compile_graph(int_graph)  # prime the cache (compilation reads neighbors)

    def no_neighbors(self, node):
        raise AssertionError("Graph.neighbors ran after compilation")

    monkeypatch.setattr(Graph, "neighbors", no_neighbors)
    result = get_detector(name).detect(
        DetectionRequest(graph=int_graph, seed=SEED)
    )
    assert len(result.cover) > 0


def test_store_warm_serving_runs_all_baselines_off_the_dict_form(
    int_graph, tmp_path, monkeypatch
):
    """A store-loaded session serves every baseline without recompiling
    and without the dict adjacency even existing in the process."""
    store = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=store) as manager:
        baselines = {
            name: manager.detect(int_graph, name, seed=SEED).cover
            for name in BASELINES
        }
        fingerprint = manager.fingerprint(int_graph)

    def no_compile(*args, **kwargs):
        raise AssertionError("_build_csr ran on a store-warm session")

    def no_neighbors(self, node):
        raise AssertionError("Graph.neighbors ran on a store-warm session")

    monkeypatch.setattr("repro.graph.csr._build_csr", no_compile)
    monkeypatch.setattr(Graph, "neighbors", no_neighbors)

    with SessionManager(
        max_sessions=1, store=GraphStore(tmp_path / "store")
    ) as manager:
        for name in BASELINES:
            result = manager.detect(fingerprint, name, seed=SEED)
            assert result.cover == baselines[name]


def test_serving_annotates_session_source_for_all_five_detectors(int_graph):
    with SessionManager(max_sessions=1) as manager:
        for index, name in enumerate(ALL_DETECTORS):
            result = manager.detect(int_graph, name, seed=SEED)
            expected = "compiled" if index == 0 else "warm"
            assert result.stats["session_source"] == expected


def test_modularity_greedy_returns_a_partition(int_graph):
    from repro.communities import Partition

    result = get_detector("modularity_greedy").detect(
        DetectionRequest(graph=int_graph, seed=SEED)
    )
    assert isinstance(result.cover, Partition)
    covered = {node for block in result.cover for node in block}
    assert covered == set(int_graph.nodes())
