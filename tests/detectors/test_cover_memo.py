"""The session's cover memo for seed-independent detectors.

``cpm``, ``cfinder`` and ``modularity_greedy`` never read the seed, so a
:class:`GraphSession` computes each of their covers once per
``(algorithm, params)`` and answers repeats from a small memo.  These
tests pin that a memoised cover is the cover a fresh run returns, that a
hit runs no kernel (counted, not timed), that per-request stats never
leak between responses, that errors are never stored, and the memo's
lifetime: it survives ``close()``/``reopen()`` and goes with the session.
"""

import threading
import time

import pytest

from repro import (
    DetectionRequest,
    Graph,
    GraphSession,
    GraphStore,
    ServeRequest,
    ServingQueue,
    SessionManager,
    compile_graph,
    get_detector,
)
from repro.detectors import builtin
from repro.detectors.session import COVER_MEMO_SIZE
from repro.errors import AlgorithmError
from repro.experiments import run_algorithm
from repro.generators import karate_club, ring_of_cliques
from repro.serving import ServingService

SEEDS = (0, 1, 7, 2**31)
CASES = [
    ("cpm", {"k": 2}),
    ("cpm", {"k": 3}),
    ("cpm", {"k": 4}),
    ("cfinder", {}),
    ("modularity_greedy", {}),
]


def _relabelled(graph, label):
    """The same structure under new labels, same construction order."""
    out = Graph(nodes=(label(node) for node in graph.nodes()))
    for u, v in graph.edges():
        out.add_edge(label(u), label(v))
    return out


@pytest.fixture(scope="module")
def karate():
    g, _ = karate_club()
    return g


@pytest.fixture(scope="module", params=["graph", "labelled_compiled", "str_graph"])
def bound(request, karate):
    """A ``Graph``, a labelled ``CompiledGraph`` (labels are not the
    dense ids) and a string-labelled ``Graph``."""
    if request.param == "graph":
        return karate
    if request.param == "labelled_compiled":
        compiled = compile_graph(_relabelled(karate, lambda node: 100 + 3 * node))
        assert not compiled.identity_labels
        return compiled
    return _relabelled(karate, lambda node: f"v{node}")


@pytest.fixture()
def ring():
    g, _ = ring_of_cliques(4, 5)
    return g


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Counts of the kernels the seed-independent detectors call."""
    calls = {"cliques": 0, "cnm": 0}

    def counted(key, kernel):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return kernel(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        builtin, "_percolate_ids", counted("cliques", builtin._percolate_ids)
    )
    monkeypatch.setattr(
        builtin, "greedy_modularity", counted("cnm", builtin.greedy_modularity)
    )
    return calls


@pytest.mark.parametrize("algorithm, params", CASES)
def test_memoised_cover_equals_a_fresh_run(bound, algorithm, params):
    with GraphSession(bound) as session:
        results = [session.detect(algorithm, seed=seed, **params) for seed in SEEDS]
    assert [r.stats["cover_memo"] for r in results] == ["miss"] + ["hit"] * (
        len(SEEDS) - 1
    )
    for seed, result in zip(SEEDS, results):
        fresh = get_detector(algorithm).detect(
            DetectionRequest(graph=bound, seed=seed, params=dict(params))
        )
        assert result.cover == fresh.cover, seed
        assert type(result.cover) is type(fresh.cover)
        assert result.params == params
        if not params:
            run = run_algorithm(algorithm, bound, seed=seed, quality_mode=False)
            assert result.cover == run.cover, seed


def test_a_hit_runs_no_kernel(ring, kernel_calls):
    with GraphSession(ring) as session:
        for seed in SEEDS:
            session.detect("cfinder", seed=seed)
        assert kernel_calls == {"cliques": 1, "cnm": 0}
        # cpm and cfinder share the kernel, not the memo entry.
        for seed in SEEDS:
            session.detect("cpm", seed=seed, k=3)
        for seed in SEEDS:
            session.detect("modularity_greedy", seed=seed)
        assert kernel_calls == {"cliques": 2, "cnm": 1}
        assert session.stats.cover_memo == {"miss": 3, "hit": 3 * (len(SEEDS) - 1)}


def test_a_hit_is_a_fresh_result(ring):
    """Serving layers write per-request keys into ``result.stats``;
    none of them may reach a later hit."""
    with GraphSession(ring) as session:
        miss = session.detect("cfinder", seed=0)
        miss.stats["session_hit"] = False
        miss.stats["queue_wait_seconds"] = 9.0
        miss.params["scribbled"] = True
        first = session.detect("cfinder", seed=1)
        first.stats["coalesce_batch"] = 4
        second = session.detect("cfinder", seed=2)
    for hit in (first, second):
        assert hit is not miss and hit.stats is not miss.stats
        assert hit.stats["cover_memo"] == "hit"
        assert hit.params == {}
        assert hit.cover == miss.cover
        assert hit.algorithm == "cfinder"
    assert "coalesce_batch" not in second.stats
    assert not {"session_hit", "queue_wait_seconds"} & set(second.stats)
    assert second.stats["maximal_cliques"] == miss.stats["maximal_cliques"]
    # A hit's time is the lookup, not the kernel it skipped.
    assert 0.0 < second.elapsed_seconds


class _ParkedManager(SessionManager):
    """A manager whose detect on ``decoy`` waits for ``release``."""

    def __init__(self, decoy, **kwargs):
        super().__init__(**kwargs)
        self.decoy = decoy
        self.started = threading.Event()
        self.release = threading.Event()

    def detect(self, graph, *args, **kwargs):
        if graph is self.decoy:
            self.started.set()
            self.release.wait(timeout=30)
        return super().detect(graph, *args, **kwargs)


def test_hits_after_a_coalesced_miss_report_their_own_queue_stats(ring, karate):
    manager = _ParkedManager(karate, max_sessions=4)
    queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=8)
    try:
        decoy = queue.submit(ServeRequest(graph=karate, algorithm="cfinder"))
        assert manager.started.wait(timeout=30)
        grouped = [
            queue.submit(ServeRequest(graph=ring, algorithm="cfinder", seed=seed))
            for seed in (1, 2, 3)
        ]
        time.sleep(0.05)  # the group waits measurably longer than the loner
        manager.release.set()
        decoy.result(timeout=30)
        grouped = [future.result(timeout=30) for future in grouped]
        alone = queue.submit(
            ServeRequest(graph=ring, algorithm="cfinder", seed=4)
        ).result(timeout=30)
    finally:
        queue.close()
        manager.close()
    assert [r.stats["cover_memo"] for r in grouped] == ["miss", "hit", "hit"]
    assert [r.stats["coalesce_batch"] for r in grouped] == [3, 3, 3]
    assert alone.stats["cover_memo"] == "hit"
    assert "coalesce_batch" not in alone.stats
    waits = [r.stats["queue_wait_seconds"] for r in grouped]
    assert len(set(waits)) == 3
    assert alone.stats["queue_wait_seconds"] < min(waits)
    assert alone.cover == grouped[0].cover


def test_a_raised_error_is_not_memoised(ring, kernel_calls, monkeypatch):
    kernel = builtin._percolate_ids
    failures = iter([RuntimeError("kernel failed")])

    def flaky(*args, **kwargs):
        for error in failures:
            raise error
        return kernel(*args, **kwargs)

    monkeypatch.setattr(builtin, "_percolate_ids", flaky)
    with GraphSession(ring) as session:
        with pytest.raises(RuntimeError, match="kernel failed"):
            session.detect("cfinder", seed=0)
        assert session.detect("cfinder", seed=1).stats["cover_memo"] == "miss"
        assert session.detect("cfinder", seed=2).stats["cover_memo"] == "hit"
        for _ in range(2):
            with pytest.raises(AlgorithmError, match="unknown parameter"):
                session.detect("modularity_greedy", seed=0, resolution=1)
        assert session.stats.cover_memo == {"miss": 1, "hit": 1}
    # The failed call stored nothing, so the next one ran the kernel.
    assert kernel_calls == {"cliques": 1, "cnm": 0}


@pytest.mark.parametrize(
    "algorithm, params, error",
    [
        ("cpm", {"k": [3]}, TypeError),
        ("modularity_greedy", {"weights": [1, 2]}, AlgorithmError),
    ],
)
def test_unhashable_params_get_the_detectors_own_error(
    ring, algorithm, params, error
):
    with pytest.raises(error) as one_shot:
        get_detector(algorithm).detect(DetectionRequest(graph=ring, params=params))
    with GraphSession(ring) as session:
        for _ in range(2):
            with pytest.raises(error) as served:
                session.detect(algorithm, seed=0, **params)
            assert str(served.value) == str(one_shot.value)
        assert session.stats.cover_memo == {}


def test_a_value_of_another_type_is_another_key(ring):
    with GraphSession(ring) as session:
        session.detect("cpm", seed=0, k=3)
        # 3.0 == 3, but the kernel refuses a float k; the memo must not
        # answer for it.
        with pytest.raises(TypeError):
            session.detect("cpm", seed=0, k=3.0)


def test_the_least_recently_used_entry_is_dropped(ring, kernel_calls):
    ks = range(2, 3 + COVER_MEMO_SIZE)  # one more k than the memo holds
    with GraphSession(ring) as session:
        for k in ks:
            session.detect("cpm", seed=0, k=k)
        assert kernel_calls["cliques"] == len(ks)
        assert session.detect("cpm", seed=1, k=ks[-1]).stats["cover_memo"] == "hit"
        assert session.detect("cpm", seed=1, k=ks[0]).stats["cover_memo"] == "miss"
        assert kernel_calls["cliques"] == len(ks) + 1


def test_the_memo_survives_close_and_reopen(ring, kernel_calls):
    session = GraphSession(ring)
    miss = session.detect("modularity_greedy", seed=0)
    session.close()
    hit = session.reopen().detect("modularity_greedy", seed=1)
    session.close()
    assert (miss.stats["cover_memo"], hit.stats["cover_memo"]) == ("miss", "hit")
    assert hit.cover == miss.cover
    assert kernel_calls["cnm"] == 1


def test_an_evicted_session_rebinds_with_an_empty_memo(ring, karate, tmp_path):
    store = GraphStore(tmp_path / "store")
    with SessionManager(max_sessions=1, store=store) as manager:
        outcomes = [
            manager.detect(ring, "cfinder", seed=0).stats["cover_memo"],
            manager.detect(ring, "cfinder", seed=1).stats["cover_memo"],
        ]
        manager.detect(karate, "cfinder", seed=0)  # evicts the ring
        rebound = manager.detect(ring, "cfinder", seed=2)
        again = manager.detect(ring, "cfinder", seed=3)
    assert outcomes == ["miss", "hit"]
    assert rebound.stats["session_source"] == "store"
    assert rebound.stats["cover_memo"] == "miss"
    assert again.stats["cover_memo"] == "hit"


@pytest.mark.parametrize("algorithm", ["oca", "lfk"])
def test_seed_dependent_detectors_never_use_the_memo(ring, algorithm):
    assert get_detector(algorithm).seed_independent is False
    assert all(get_detector(name).seed_independent for name, _ in CASES)
    with GraphSession(ring) as session:
        results = [session.detect(algorithm, seed=0) for _ in range(3)]
        assert session.stats.cover_memo == {}
    assert all("cover_memo" not in result.stats for result in results)


def test_a_served_hit_is_visible_in_response_event_and_metrics(ring, tmp_path):
    from repro.graph import write_edge_list

    path = tmp_path / "ring.edges"
    write_edge_list(ring, path)
    lines = [
        f'{{"id": "c{seed}", "graph": "{path}", "algorithm": "cfinder", "seed": {seed}}}'
        for seed in (1, 2)
    ]
    with ServingService(event_capacity=16) as service:
        responses = list(service.handle_lines(lines))
        events = service.events.tail(8, kind="request")
        scrape = service.registry.render()
    assert [r["stats"]["cover_memo"] for r in responses] == ["miss", "hit"]
    assert responses[0]["communities"] == responses[1]["communities"]
    assert [event["cover_memo"] for event in events] == ["miss", "hit"]
    assert 'repro_session_cover_memo_total{outcome="hit"} 1' in scrape.splitlines()
    assert 'repro_session_cover_memo_total{outcome="miss"} 1' in scrape.splitlines()
