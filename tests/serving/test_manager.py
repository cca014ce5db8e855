"""SessionManager: LRU determinism, accounting, and serving fidelity."""

import threading

import pytest

from repro import GraphSession, SessionManager, graph_fingerprint
from repro.errors import AlgorithmError, ConfigurationError, ServingError
from repro.generators import ring_of_cliques


def make_graphs(count=4, size=4):
    """Distinct small graphs (different clique counts)."""
    return [ring_of_cliques(3 + index, size)[0] for index in range(count)]


@pytest.fixture()
def graphs():
    return make_graphs()


class TestLRU:
    def test_hit_miss_accounting(self, graphs):
        with SessionManager(max_sessions=4) as manager:
            manager.detect(graphs[0], "oca", seed=0)
            manager.detect(graphs[0], "oca", seed=1)
            manager.detect(graphs[1], "oca", seed=0)
            stats = manager.stats
            assert (stats.misses, stats.hits) == (2, 1)
            assert stats.hit_rate == pytest.approx(1 / 3)
            assert stats.detect_calls == 3
            assert stats.detect_seconds > 0.0

    def test_eviction_order_is_strict_lru(self, graphs):
        fingerprints = [graph_fingerprint(g) for g in graphs]
        with SessionManager(max_sessions=2) as manager:
            manager.detect(graphs[0], "oca", seed=0)
            manager.detect(graphs[1], "oca", seed=0)
            # Refresh 0: now 1 is the least recently used.
            manager.detect(graphs[0], "oca", seed=1)
            manager.detect(graphs[2], "oca", seed=0)  # evicts 1, not 0
            assert manager.fingerprints() == [fingerprints[0], fingerprints[2]]
            manager.detect(graphs[3], "oca", seed=0)  # evicts 0
            assert manager.fingerprints() == [fingerprints[2], fingerprints[3]]
            assert manager.stats.evictions == 2

    def test_eviction_closes_the_session(self, graphs):
        with SessionManager(max_sessions=1) as manager:
            first = manager.session(graphs[0])
            manager.detect(graphs[1], "oca", seed=0)
            assert first.closed
            assert len(manager) == 1

    def test_eviction_is_deterministic_across_replays(self, graphs):
        requests = [0, 1, 0, 2, 3, 2, 1]

        def replay():
            with SessionManager(max_sessions=2) as manager:
                for index in requests:
                    manager.detect(graphs[index], "oca", seed=index)
                return manager.fingerprints(), manager.stats.evictions

        assert replay() == replay()

    def test_evicted_graph_rebinds_on_next_request(self, graphs):
        with SessionManager(max_sessions=1) as manager:
            before = manager.detect(graphs[0], "oca", seed=3)
            manager.detect(graphs[1], "oca", seed=0)
            again = manager.detect(graphs[0], "oca", seed=3)
            assert again.stats["session_hit"] is False
            assert again.cover == before.cover

    def test_manual_evict(self, graphs):
        with SessionManager(max_sessions=4) as manager:
            manager.detect(graphs[0], "oca", seed=0)
            fingerprint = graph_fingerprint(graphs[0])
            assert manager.evict(fingerprint) is True
            assert manager.evict(fingerprint) is False
            assert fingerprint not in manager


class TestMemoryBudget:
    def test_memory_budget_evicts_lru(self, graphs):
        one_session = GraphSession(graphs[0])
        footprint = one_session.memory_bytes()
        one_session.close()
        # Room for roughly two small sessions, not four.
        with SessionManager(
            max_sessions=10, max_memory_bytes=int(footprint * 2.5)
        ) as manager:
            for graph in graphs:
                manager.detect(graph, "oca", seed=0)
            assert manager.stats.evictions >= 1
            assert manager.memory_bytes() <= int(footprint * 2.5) * 2
            assert len(manager) < len(graphs)

    def test_last_session_never_evicted_by_memory(self, graphs):
        with SessionManager(max_sessions=10, max_memory_bytes=1) as manager:
            result = manager.detect(graphs[0], "oca", seed=0)
            assert len(result.cover) >= 1
            assert len(manager) == 1  # over budget, but still serving

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionManager(max_sessions=0)
        with pytest.raises(ConfigurationError):
            SessionManager(max_memory_bytes=0)


class TestServingContract:
    def test_fingerprint_mode_requires_warm_session(self, graphs):
        with SessionManager(max_sessions=2) as manager:
            with pytest.raises(ServingError, match="no warm session"):
                manager.detect("0" * 64, "oca", seed=0)
            manager.detect(graphs[0], "oca", seed=0)
            served = manager.detect(graph_fingerprint(graphs[0]), "oca", seed=0)
            assert served.stats["session_hit"] is True

    def test_closed_manager_refuses_requests(self, graphs):
        manager = SessionManager(max_sessions=2)
        manager.detect(graphs[0], "oca", seed=0)
        manager.close()
        manager.close()  # idempotent
        assert manager.closed
        with pytest.raises(ServingError, match="closed"):
            manager.detect(graphs[0], "oca", seed=0)

    def test_out_of_band_close_is_revived_by_reopen(self, graphs):
        with SessionManager(max_sessions=2) as manager:
            manager.detect(graphs[0], "oca", seed=0)  # warm the caches
            session = manager.session(graphs[0])
            session.close()
            result = manager.detect(graphs[0], "oca", seed=0)
            assert result.stats["session_hit"] is True
            assert manager.stats.reopened == 1
            # The revived session kept its compiled graph + spectral
            # cache; only the pool was rebuilt.
            assert result.stats["c_source"] == "cache"

    def test_session_accessor_refreshes_lru(self, graphs):
        with SessionManager(max_sessions=2) as manager:
            manager.detect(graphs[0], "oca", seed=0)
            manager.detect(graphs[1], "oca", seed=0)
            assert manager.session(graphs[0]) is not None  # refresh 0
            manager.detect(graphs[2], "oca", seed=0)  # evicts 1
            assert graph_fingerprint(graphs[0]) in manager
            assert graph_fingerprint(graphs[1]) not in manager


class TestRefusedBeforeTheCache:
    """A request the detector check refuses never reaches the session
    cache: no fingerprint, no hit or miss, no bind, no eviction."""

    @pytest.mark.parametrize(
        "algorithm, params, error",
        [
            ("nope", {}, AlgorithmError),
            ("oca", {"colour": "red"}, AlgorithmError),
            ("oca", {"batch_size": 0}, ConfigurationError),
            ("lfk", {"alpha": -1.0}, ConfigurationError),
            ("cpm", {"k": 1}, ConfigurationError),
        ],
    )
    def test_warm_session_survives_a_refused_request_on_a_new_graph(
        self, graphs, algorithm, params, error
    ):
        with SessionManager(max_sessions=1) as manager:
            warm = manager.detect(graphs[0], "oca", seed=0)
            counts = (
                manager.stats.hits,
                manager.stats.misses,
                manager.stats.evictions,
            )
            scrape = manager.registry.render()
            with pytest.raises(error):
                manager.detect(graphs[1], algorithm, seed=0, **params)
            assert manager.fingerprints() == [warm.stats["session_fingerprint"]]
            assert graphs[1]._compiled is None  # never fingerprinted
            assert (
                manager.stats.hits,
                manager.stats.misses,
                manager.stats.evictions,
            ) == counts
            for line in scrape.splitlines():
                if line.startswith(
                    ("repro_manager_requests_total", "repro_manager_evictions_total")
                ):
                    assert line in manager.registry.render().splitlines()
            again = manager.detect(graphs[0], "oca", seed=0)
            assert again.stats["session_hit"] is True


class TestThreadSafety:
    def test_concurrent_mixed_graph_traffic(self, graphs):
        expected = {}
        for index, graph in enumerate(graphs):
            with GraphSession(graph.copy()) as session:
                expected[index] = session.detect("oca", seed=index).cover

        errors = []
        results = {}

        def client(worker_index):
            try:
                for _ in range(3):
                    for index, graph in enumerate(graphs):
                        result = manager.detect(graph, "oca", seed=index)
                        results[(worker_index, index)] = result.cover
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        with SessionManager(max_sessions=2) as manager:
            threads = [
                threading.Thread(target=client, args=(index,)) for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        for (_, index), cover in results.items():
            assert cover == expected[index]
