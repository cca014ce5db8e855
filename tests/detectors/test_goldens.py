"""Golden cover digests: every detector's covers frozen as small JSON data.

Each case is one (detector case, graph family, label type[, seed]).  Its
digest is the SHA-256 of the canonical cover (members and communities
sorted).  Three files hold them:

``oca_goldens.json``
    OCA under the default configuration, whose ``c`` comes from the
    Lanczos solver.
``baseline_goldens.json``
    LFK (seeds 1-3), CFinder, CPM at ``k = 4`` and CNM.  CFinder, CPM
    and CNM ignore the seed, so their cases carry none.
``ablation_goldens.json``
    OCA with the non-monotone ``LFKFitness(alpha=1.0)`` objective.

A change that moves any cover fails here; a deliberate one re-pins the
files with::

    PYTHONPATH=src python -m tests.detectors.test_goldens

and says in its change notes which cases moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Graph, GraphSession
from repro.core.fitness import LFKFitness
from repro.generators import LFRParams, daisy_tree, lfr_graph, ring_of_cliques

DATA = Path(__file__).resolve().parent.parent / "data"
SEEDS = (1, 2, 3)
LABELS = ("int", "str")

#: golden file -> {case name: (detector, params, seeds)}.  The default
#: OCA case has an empty name, so its keys keep their original form.
CASES = {
    "oca_goldens.json": {"": ("oca", {}, SEEDS)},
    "baseline_goldens.json": {
        "lfk": ("lfk", {}, SEEDS),
        "cfinder": ("cfinder", {}, (None,)),
        "cpm_k4": ("cpm", {"k": 4}, (None,)),
        "modularity_greedy": ("modularity_greedy", {}, (None,)),
    },
    "ablation_goldens.json": {
        "oca_lfk_fitness": ("oca", {"fitness": LFKFitness(alpha=1.0)}, SEEDS),
    },
}


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


def case_id(case, family, labels, seed):
    parts = [case] if case else []
    parts += [family, labels]
    if seed is not None:
        parts.append(f"seed{seed}")
    return "/".join(parts)


def expected_ids(filename):
    return sorted(
        case_id(case, family, labels, seed)
        for case, (_, _, seeds) in CASES[filename].items()
        for family in FAMILIES
        for labels in LABELS
        for seed in seeds
    )


def compute(filename, families=FAMILIES, labels_of=LABELS, cases=None):
    """Every case's digest in one golden file, or only those of ``cases``."""
    chosen = {
        case: spec
        for case, spec in CASES[filename].items()
        if cases is None or case in cases
    }
    digests = {}
    for family in families:
        base = _graph(family)
        for labels in labels_of:
            with GraphSession(_labelled(base, labels)) as session:
                for case, (detector, params, seeds) in chosen.items():
                    for seed in seeds:
                        result = session.detect(detector, seed=seed, **params)
                        digests[case_id(case, family, labels, seed)] = (
                            cover_digest(result.cover)
                        )
    return digests


@pytest.fixture(scope="module")
def frozen():
    return {name: json.loads((DATA / name).read_text()) for name in CASES}


def test_goldens_cover_every_case(frozen):
    for filename in CASES:
        assert sorted(frozen[filename]) == expected_ids(filename), filename


def _check(frozen, filename, family):
    for key, digest in compute(filename, families=(family,)).items():
        assert digest == frozen[filename][key], key


@pytest.mark.parametrize("family", FAMILIES)
def test_default_covers_match_the_goldens(frozen, family):
    _check(frozen, "oca_goldens.json", family)


@pytest.mark.parametrize("family", FAMILIES)
def test_baseline_covers_match_the_goldens(frozen, family):
    _check(frozen, "baseline_goldens.json", family)


@pytest.mark.parametrize("family", FAMILIES)
def test_ablation_covers_match_the_goldens(frozen, family):
    _check(frozen, "ablation_goldens.json", family)


_HASH_SEED_SCRIPT = """
import sys
from tests.detectors.test_goldens import compute
print(sorted(compute(sys.argv[1], labels_of=("str",), cases=sys.argv[2:]).items()))
"""


def _outputs_under_hash_seeds(filename, case):
    """The string-labelled digests of ``case`` under two hash seeds."""
    root = Path(__file__).resolve().parents[2]
    outputs = set()
    for hash_seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        run = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, filename, case],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert f"'{case}/" in run.stdout, run.stdout
        outputs.add(run.stdout)
    return outputs


def test_ablation_cover_is_independent_of_the_hash_seed():
    """The non-monotone scan walks ids in ascending order, never a set,
    so string-labelled covers cannot follow the interpreter's hash seed."""
    outputs = _outputs_under_hash_seeds("ablation_goldens.json", "oca_lfk_fitness")
    assert len(outputs) == 1


def test_cnm_partition_is_independent_of_the_hash_seed():
    """CNM merges in dense-id space with integer keys and lowest-pair
    ties, so string labels cannot change the partition."""
    outputs = _outputs_under_hash_seeds("baseline_goldens.json", "modularity_greedy")
    assert len(outputs) == 1


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in CASES:
        (DATA / name).write_text(
            json.dumps(compute(name), indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {DATA / name}")
