"""GraphStore unit behaviour: roundtrip, layout, access log, GC."""

import json

import numpy as np
import pytest

from repro import Graph, GraphStore, compile_graph, graph_fingerprint
from repro.errors import ConfigurationError
from repro.generators import ring_of_cliques
from repro.store import STORE_FORMAT_VERSION


@pytest.fixture
def graph():
    g, _ = ring_of_cliques(3, 4)
    return g


@pytest.fixture
def store(tmp_path):
    return GraphStore(tmp_path / "store")


def str_labelled(graph):
    mapping = {node: f"n{node}" for node in graph.nodes()}
    g = Graph(nodes=(mapping[node] for node in graph.nodes()))
    for u, v in graph.edges():
        g.add_edge(mapping[u], mapping[v])
    return g


class TestRoundtrip:
    def test_save_then_load_restores_the_exact_arrays(self, store, graph):
        compiled = compile_graph(graph)
        fingerprint = graph_fingerprint(compiled)
        assert store.save(compiled) is True
        assert fingerprint in store
        loaded = store.load(fingerprint)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.indptr, compiled.indptr)
        np.testing.assert_array_equal(loaded.indices, compiled.indices)
        np.testing.assert_array_equal(loaded.degrees, compiled.degrees)
        assert loaded.indptr.dtype == compiled.indptr.dtype
        assert list(loaded.labels) == list(compiled.labels)
        assert graph_fingerprint(loaded) == fingerprint

    def test_loaded_arrays_are_readonly_memory_maps(self, store, graph):
        store.save(graph)
        loaded = store.load(graph_fingerprint(graph))
        for name in ("indptr", "indices", "degrees"):
            array = getattr(loaded, name)
            assert isinstance(array, np.memmap)
            assert not array.flags.writeable

    def test_spectral_cache_travels_with_the_arrays(self, store, graph):
        compiled = compile_graph(graph)
        by_power = ("admissible_c", "power", 1e-6, 1000)
        by_lanczos = ("admissible_c", "lanczos", 1e-6, 1000)
        compiled.spectral_cache[by_power] = 3.25
        compiled.spectral_cache[by_lanczos] = 3.5
        store.save(compiled)
        manifest = store.manifest(graph_fingerprint(compiled))
        assert manifest["spectral"] == [
            ["lanczos", 1e-6, 1000, 3.5],
            ["power", 1e-6, 1000, 3.25],
        ]
        loaded = store.load(graph_fingerprint(compiled))
        assert loaded.spectral_cache == {by_power: 3.25, by_lanczos: 3.5}

    def test_foreign_spectral_keys_stay_process_local(self, store, graph):
        compiled = compile_graph(graph)
        key = ("admissible_c", "lanczos", 1e-6, 1000)
        compiled.spectral_cache[key] = 2.0
        compiled.spectral_cache["some-future-key"] = object()
        compiled.spectral_cache[("admissible_c", 1e-6, 1000)] = 1.5
        store.save(compiled)
        loaded = store.load(graph_fingerprint(compiled))
        assert loaded.spectral_cache == {key: 2.0}

    def test_str_labels_roundtrip(self, store, graph):
        labelled = str_labelled(graph)
        compiled = compile_graph(labelled)
        store.save(compiled)
        loaded = store.load(graph_fingerprint(compiled))
        assert list(loaded.labels) == list(compiled.labels)
        assert all(isinstance(label, str) for label in loaded.labels)
        assert graph_fingerprint(loaded) == graph_fingerprint(compiled)

    def test_unpersistable_labels_decline_the_save(self, store):
        g = Graph(edges=[((0, 1), (2, 3)), ((2, 3), (4, 5))])
        assert store.save(g) is False
        assert len(store) == 0
        assert store.stats.saves_skipped == 1

    def test_missing_fingerprint_is_a_clean_miss(self, store):
        assert store.load("f" * 64) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_resave_overwrites_and_stays_loadable(self, store, graph):
        store.save(graph)
        fingerprint = graph_fingerprint(graph)
        first = store.manifest(fingerprint)["payload"]
        store.save(graph)
        second = store.manifest(fingerprint)["payload"]
        assert first != second  # fresh nonce per save
        assert store.load(fingerprint) is not None
        assert len(store) == 1


class TestLayout:
    def test_manifest_records_the_documented_fields(self, store, graph):
        store.save(graph)
        fingerprint = graph_fingerprint(graph)
        manifest = store.manifest(fingerprint)
        assert manifest["format_version"] == STORE_FORMAT_VERSION
        assert manifest["fingerprint"] == fingerprint
        assert set(manifest["arrays"]) == {"indptr", "indices", "degrees"}
        for spec in manifest["arrays"].values():
            assert {"dtype", "shape", "sha256"} <= set(spec)
        assert manifest["nbytes"] > 0
        assert "checksum" in manifest

    def test_entries_shard_by_fingerprint_prefix(self, store, graph):
        store.save(graph)
        fingerprint = graph_fingerprint(graph)
        shard = store.root / fingerprint[:2]
        assert (shard / f"{fingerprint}.json").is_file()
        payload = store.manifest(fingerprint)["payload"]
        assert (shard / payload / "indptr.npy").is_file()

    def test_total_bytes_matches_the_manifests(self, store, graph):
        store.save(graph)
        fingerprint = graph_fingerprint(graph)
        assert store.total_bytes() == store.entry_bytes(fingerprint)
        assert store.total_bytes() == store.manifest(fingerprint)["nbytes"]


class TestAccessLogAndGC:
    def _save_two(self, store, graph):
        other, _ = ring_of_cliques(4, 5)
        store.save(graph)
        store.save(other)
        return graph_fingerprint(graph), graph_fingerprint(other)

    def test_recent_orders_by_last_access(self, store, graph):
        fp_a, fp_b = self._save_two(store, graph)
        assert store.recent() == [fp_b, fp_a]  # save order
        store.load(fp_a)  # touch refreshes recency
        assert store.recent() == [fp_a, fp_b]
        assert store.recent(limit=1) == [fp_a]

    def test_recent_survives_a_lost_access_log(self, store, graph):
        fp_a, fp_b = self._save_two(store, graph)
        (store.root / "access.json").unlink()
        # Falls back to manifest creation order; both still listed.
        assert set(store.recent()) == {fp_a, fp_b}

    def test_prune_evicts_least_recently_accessed_first(self, store, graph):
        fp_a, fp_b = self._save_two(store, graph)
        store.load(fp_a)
        keep = store.entry_bytes(fp_a)
        reclaimed = store.prune(max_bytes=keep)
        assert reclaimed == store.stats.pruned_bytes
        assert store.fingerprints() == [fp_a]
        assert store.stats.pruned == 1

    def test_prune_to_zero_empties_the_store(self, store, graph):
        self._save_two(store, graph)
        store.prune(max_bytes=0)
        assert len(store) == 0
        assert store.total_bytes() == 0

    def test_budgeted_store_prunes_after_each_save(self, tmp_path, graph):
        small, _ = ring_of_cliques(3, 3)
        compiled = compile_graph(small)
        one_entry = sum(
            getattr(compiled, name).nbytes
            for name in ("indptr", "indices", "degrees")
        )
        store = GraphStore(tmp_path / "budget", max_bytes=one_entry + 16)
        store.save(small)
        store.save(graph)  # bigger graph: small one must go
        assert store.total_bytes() <= one_entry + 16 or len(store) == 1
        assert graph_fingerprint(small) not in store

    def test_remove_is_idempotent(self, store, graph):
        store.save(graph)
        fingerprint = graph_fingerprint(graph)
        assert store.remove(fingerprint) is True
        assert store.remove(fingerprint) is False
        assert fingerprint not in store

    def test_invalid_budgets_are_rejected(self, tmp_path, store):
        with pytest.raises(ConfigurationError):
            GraphStore(tmp_path / "bad", max_bytes=0)
        with pytest.raises(ConfigurationError):
            store.prune(max_bytes=-1)


class TestStats:
    def test_counters_track_the_lifecycle(self, store, graph):
        fingerprint = graph_fingerprint(graph)
        store.load(fingerprint)
        store.save(graph)
        store.load(fingerprint)
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.saves == 1
        assert store.stats.load_bytes == store.total_bytes()
        assert store.stats.hit_rate == 0.5

    def test_metrics_render_into_the_registry(self, store, graph):
        store.save(graph)
        store.load(graph_fingerprint(graph))
        rendered = store.registry.render()
        assert 'repro_store_requests_total{outcome="hit"} 1' in rendered
        assert "repro_store_saves_total 1" in rendered
        assert "repro_store_entries 1" in rendered

    def test_access_log_is_valid_json(self, store, graph):
        store.save(graph)
        log = json.loads((store.root / "access.json").read_text())
        assert list(log) == [graph_fingerprint(graph)]
