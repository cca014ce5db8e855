"""Acceptance matrix: registry/session covers vs the bare kernels.

Every algorithm, reached through ``get_detector(name)`` — on either
graph form, one-shot or through a reused
:class:`~repro.detectors.GraphSession` — returns covers
**byte-identical** to its kernel run on the identity-labelled compiled
graph, translated back to labels by hand.  The matrix below pins all of
``4 detectors x {Graph, CompiledGraph} x {one-shot, session-reuse}``
on both integer- and string-labelled graphs.
"""

import pytest

from repro import (
    OCA,
    Cover,
    DetectionRequest,
    Graph,
    GraphSession,
    compile_graph,
    get_detector,
)
from repro.baselines.cpm import _percolate_ids
from repro.baselines.lfk import _lfk_compiled
from repro.generators import ring_of_cliques

DETECTORS = ("oca", "lfk", "cfinder", "cpm")
SEED = 29


def _kernel_cover(name, graph, seed):
    """The algorithm's kernel in dense-id space, translated to labels."""
    compiled = compile_graph(graph)
    ids = compiled.as_identity()
    if name == "oca":
        communities = OCA().run(ids, seed=seed).cover
    elif name == "lfk":
        communities, _ = _lfk_compiled(ids, seed=seed)
    else:  # cfinder and cpm both percolate at k = 3
        communities, _ = _percolate_ids(ids, k=3)
    return Cover(compiled.labels_of(community) for community in communities)


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
def reference(graph):
    return {name: _kernel_cover(name, graph, SEED) for name in DETECTORS}


@pytest.mark.parametrize("name", DETECTORS)
class TestAcceptanceMatrix:
    def test_one_shot_on_graph(self, graph, reference, name):
        result = get_detector(name).detect(
            DetectionRequest(graph=graph, seed=SEED)
        )
        assert result.cover == reference[name]

    def test_one_shot_on_compiled_graph(self, graph, reference, name):
        compiled = compile_graph(graph)
        result = get_detector(name).detect(
            DetectionRequest(graph=compiled, seed=SEED)
        )
        # Compiled input must come back in the original label space.
        assert result.cover == reference[name]

    def test_session_reuse_on_graph(self, graph, reference, name):
        with GraphSession(graph) as session:
            session.detect(name, seed=SEED + 1)  # warm every cache
            result = session.detect(name, seed=SEED)
        assert result.cover == reference[name]

    def test_session_reuse_on_compiled_graph(self, graph, reference, name):
        with GraphSession(compile_graph(graph)) as session:
            session.detect(name, seed=SEED + 1)
            result = session.detect(name, seed=SEED)
        assert result.cover == reference[name]


def test_covers_invariant_under_relabelling(int_graph, str_graph):
    """Trajectories are a pure function of construction order.

    Running any detector on the string-relabelled twin and mapping the
    labels back must reproduce the integer graph's cover exactly — the
    determinism property the rank-ordered draws (scheduler) and
    rank-ordered scans (LFK) exist to provide.
    """
    for name in DETECTORS:
        on_int = get_detector(name).detect(
            DetectionRequest(graph=int_graph, seed=SEED)
        )
        on_str = get_detector(name).detect(
            DetectionRequest(graph=str_graph, seed=SEED)
        )
        unmapped = {
            frozenset(int(node[1:]) for node in community)
            for community in on_str.cover
        }
        assert unmapped == {frozenset(c) for c in on_int.cover}


def test_run_algorithm_goes_through_registry(int_graph):
    """The experiment runner accepts registry keys and figure labels."""
    from repro.experiments import run_algorithm

    by_label = run_algorithm("CFinder", int_graph, seed=SEED)
    by_key = run_algorithm("cfinder", int_graph, seed=SEED)
    assert by_label.cover == by_key.cover
    cpm_run = run_algorithm("cpm", int_graph, seed=SEED)
    assert cpm_run.cover == by_key.cover


@pytest.mark.parametrize(
    "algorithm", ["oca", "lfk", "cfinder", "cpm", "modularity_greedy"]
)
def test_cli_detect_accepts_every_registered_algorithm(
    tmp_path, capsys, algorithm
):
    from repro.cli import main
    from repro.graph import write_edge_list

    g, _ = ring_of_cliques(3, 4)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    assert main(["detect", str(path), "--algorithm", algorithm, "--seed", "0"]) == 0
    assert capsys.readouterr().out.strip()
