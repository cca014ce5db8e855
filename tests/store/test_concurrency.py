"""Concurrent writers: same fingerprint, clean race, loadable result.

Two processes saving the same graph race only on the manifest
``os.replace`` (atomic); whichever wins, the committed entry must
validate and load. The loser's payload directory becomes an orphan the
GC sweeps once it is past the in-flight-writer grace period.
"""

import multiprocessing
import time

import pytest

from repro import GraphStore, compile_graph, graph_fingerprint
from repro.generators import ring_of_cliques
from repro.store import store as store_module


def _build_graph():
    g, _ = ring_of_cliques(4, 5)
    return g


def _racing_save(root, barrier, rounds):
    graph = _build_graph()
    compiled = compile_graph(graph)
    compiled.spectral_cache[("admissible_c", "lanczos", 1e-6, 1000)] = 2.5
    store = GraphStore(root)
    barrier.wait(timeout=30)
    for _ in range(rounds):
        assert store.save(compiled) is True


@pytest.mark.parametrize("rounds", [3])
def test_two_processes_saving_the_same_fingerprint_race_cleanly(
    tmp_path, rounds
):
    root = tmp_path / "store"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    workers = [
        ctx.Process(target=_racing_save, args=(str(root), barrier, rounds))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0

    store = GraphStore(root)
    fingerprint = graph_fingerprint(_build_graph())
    assert store.fingerprints() == [fingerprint]
    loaded = store.load(fingerprint)
    assert loaded is not None
    assert graph_fingerprint(loaded) == fingerprint
    assert loaded.spectral_cache == {("admissible_c", "lanczos", 1e-6, 1000): 2.5}


def test_loser_payloads_are_swept_once_past_the_grace_period(
    tmp_path, monkeypatch
):
    root = tmp_path / "store"
    store = GraphStore(root)
    graph = _build_graph()
    store.save(graph)
    store.save(graph)  # second save orphans the first payload dir
    fingerprint = graph_fingerprint(graph)
    shard = store.root / fingerprint[:2]
    payloads = [p for p in shard.iterdir() if p.is_dir()]
    assert len(payloads) == 2

    store.prune()  # fresh orphan: still inside the grace period
    assert len([p for p in shard.iterdir() if p.is_dir()]) == 2

    monkeypatch.setattr(store_module, "_ORPHAN_GRACE_SECONDS", 0.0)
    time.sleep(0.01)
    store.prune()
    remaining = [p.name for p in shard.iterdir() if p.is_dir()]
    assert remaining == [store.manifest(fingerprint)["payload"]]
    assert store.load(fingerprint) is not None


def test_interleaved_saves_in_one_process_always_stay_loadable(tmp_path):
    """The single-process flavour of last-writer-wins: every save
    commits a complete entry, and a load between any two saves works."""
    store = GraphStore(tmp_path / "store")
    graph = _build_graph()
    fingerprint = graph_fingerprint(graph)
    for _ in range(5):
        assert store.save(graph) is True
        assert store.load(fingerprint) is not None
    assert len(store) == 1
