"""Golden cover digests: OCA's covers frozen as small JSON test data.

Each case is one (graph family, label type, seed).  Its digest is the
SHA-256 of the canonical cover (members and communities sorted), taken
under the default configuration, whose ``c`` comes from the Lanczos
solver.  A change that moves any cover fails here; a deliberate one
re-pins the file with::

    PYTHONPATH=src python -m tests.detectors.test_goldens

and says in its change notes which cases moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import Graph, GraphSession
from repro.generators import LFRParams, daisy_tree, lfr_graph, ring_of_cliques

GOLDENS = Path(__file__).resolve().parent.parent / "data" / "oca_goldens.json"
SEEDS = (1, 2, 3)
LABELS = ("int", "str")


def _graph(family):
    if family == "daisy":
        return daisy_tree(flowers=3, seed=7).graph
    if family == "ring":
        return ring_of_cliques(6, 5)[0]
    if family == "lfr":
        params = LFRParams(
            n=300, average_degree=12, max_degree=30,
            min_community=15, max_community=40,
        )
        return lfr_graph(params, seed=11).graph
    if family == "lfr_overlapping":
        params = LFRParams(
            n=300, average_degree=12, max_degree=30,
            min_community=15, max_community=40, on=30, om=2,
        )
        return lfr_graph(params, seed=12).graph
    raise KeyError(family)


FAMILIES = ("daisy", "ring", "lfr", "lfr_overlapping")


def _labelled(graph, labels):
    """The graph itself, or its ``"n<i>"`` twin in the same order."""
    if labels == "int":
        return graph
    twin = Graph(nodes=(f"n{node}" for node in graph.nodes()))
    for u, v in graph.edges():
        twin.add_edge(f"n{u}", f"n{v}")
    return twin


def cover_digest(cover):
    canonical = sorted(sorted(repr(member) for member in c) for c in cover)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def case_id(family, labels, seed):
    return f"{family}/{labels}/seed{seed}"


def compute(**params):
    """Every case's digest, under ``params`` on top of the defaults."""
    digests = {}
    for family in FAMILIES:
        base = _graph(family)
        for labels in LABELS:
            with GraphSession(_labelled(base, labels)) as session:
                for seed in SEEDS:
                    result = session.detect("oca", seed=seed, **params)
                    digests[case_id(family, labels, seed)] = cover_digest(
                        result.cover
                    )
    return digests


@pytest.fixture(scope="module")
def frozen():
    return json.loads(GOLDENS.read_text())


@pytest.fixture(scope="module")
def current():
    return compute()


def test_goldens_cover_every_case(frozen):
    assert sorted(frozen) == sorted(
        case_id(f, label, s) for f in FAMILIES for label in LABELS for s in SEEDS
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_default_covers_match_the_goldens(frozen, current, family):
    for key, digest in current.items():
        if key.startswith(f"{family}/"):
            assert digest == frozen[key], key


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
