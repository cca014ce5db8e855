"""Unit tests for the GraphSession serving layer.

The session's whole reason to exist: ``detect`` call 2..N on one graph
performs no graph compilation and no power-method work, and reuses the
persistent engine worker pool — while returning covers byte-identical
to one-shot calls.
"""

import pytest

from repro import DetectionRequest, GraphSession, get_detector
from repro.errors import AlgorithmError, SessionClosedError
from repro.generators import ring_of_cliques


@pytest.fixture()
def graph():
    g, _ = ring_of_cliques(4, 5)
    return g


class TestSessionBasics:
    def test_context_manager_and_close(self, graph):
        with GraphSession(graph) as session:
            assert not session.closed
            session.detect("oca", seed=0)
        assert session.closed
        with pytest.raises(SessionClosedError, match="closed"):
            session.detect("oca", seed=0)
        # A second explicit close is a lifecycle error, loudly — not a
        # crash somewhere inside the pool teardown path.
        with pytest.raises(SessionClosedError, match="already-closed"):
            session.close()
        # SessionClosedError subclasses the old error type, so callers
        # that caught AlgorithmError keep working.
        assert issubclass(SessionClosedError, AlgorithmError)

    def test_close_inside_with_block_exits_cleanly(self, graph):
        with GraphSession(graph) as session:
            session.close()
        assert session.closed  # __exit__ tolerated the early close

    def test_reopen_revives_a_closed_session(self, graph, start_method):
        start_method("fork")
        session = GraphSession(graph, workers=2)
        cold = session.detect("oca", seed=0)
        session.close()
        assert session.reopen() is session
        warm = session.detect("oca", seed=0)
        session.close()
        assert warm.cover == cold.cover
        # The compiled graph and spectral cache survive a close/reopen:
        # only the worker pool is rebuilt.
        assert warm.stats["c_source"] == "cache"
        assert warm.stats["compiled_reused"] is True
        assert warm.stats["engine_pool"] == "fresh"
        assert session.stats.pools_closed == 2
        session.reopen().reopen()  # no-op on an open session
        session.close()

    def test_memory_bytes_reports_compiled_footprint(self, graph):
        with GraphSession(graph) as session:
            footprint = session.memory_bytes()
        assert footprint == session.stats.memory_bytes
        assert footprint >= session.compiled.nbytes() > 0

    def test_rejects_non_graph_input(self):
        with pytest.raises(AlgorithmError):
            GraphSession([1, 2, 3])

    def test_repr_reports_size_and_calls(self, graph):
        with GraphSession(graph) as session:
            session.detect("oca", seed=0)
            text = repr(session)
        assert "n=20" in text and "calls=1" in text

    def test_detect_matches_one_shot(self, graph):
        one_shot = get_detector("oca").detect(
            DetectionRequest(graph=graph, seed=5)
        )
        with GraphSession(graph) as session:
            session.detect("oca", seed=3)  # warm the caches first
            warm = session.detect("oca", seed=5)
        assert warm.cover == one_shot.cover
        assert warm.raw_cover == one_shot.raw_cover
        assert warm.c == one_shot.c

    def test_all_algorithms_detectable(self, graph):
        with GraphSession(graph) as session:
            for name in ("oca", "lfk", "cfinder", "cpm"):
                assert len(session.detect(name, seed=0).cover) >= 1
            assert session.stats.detect_calls == 4
            assert session.stats.by_algorithm == {
                "oca": 1, "lfk": 1, "cfinder": 1, "cpm": 1,
            }


class TestWarmPath:
    def test_second_detect_hits_all_caches(self, graph):
        with GraphSession(graph) as session:
            cold = session.detect("oca", seed=0)
            warm = session.detect("oca", seed=1)
        assert cold.stats["c_source"] == "lanczos"
        assert warm.stats["c_source"] == "cache"
        assert warm.stats["compiled_reused"] is True
        # One worker runs inline: there is no pool to open or reuse.
        assert cold.stats["engine_pool"] == warm.stats["engine_pool"] == "none"

    def test_second_detect_runs_no_compile_or_power_method(
        self, graph, monkeypatch
    ):
        with GraphSession(graph) as session:
            session.detect("oca", seed=0)

            def no_compile(*args, **kwargs):
                raise AssertionError("compile_graph ran on a warm session")

            def no_power_method(*args, **kwargs):
                raise AssertionError("power method ran on a warm session")

            def no_lanczos(*args, **kwargs):
                raise AssertionError("eigsh ran on a warm session")

            monkeypatch.setattr("repro.graph.csr._build_csr", no_compile)
            monkeypatch.setattr(
                "repro.core.spectral.power_method", no_power_method
            )
            monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_lanczos)
            result = session.detect("oca", seed=1)
        assert len(result.cover) >= 1

    def test_stats_accumulate(self, graph, start_method):
        start_method("fork")
        with GraphSession(graph, workers=2) as session:
            for seed in range(4):
                session.detect("oca", seed=seed)
            stats = session.stats
            assert stats.pools_closed == 0
        assert stats.detect_calls == 4
        assert stats.power_method_runs == 1
        assert stats.spectral_cache_hits == 3
        assert stats.pool_reuses == 3
        assert stats.pools_closed == 1
        assert stats.detect_seconds > 0.0

    def test_inline_detects_count_no_worker_calls(self, graph):
        """One worker runs every task inline: no worker call is made, so
        neither the call counter nor the chunk histogram may move."""
        with GraphSession(graph) as session:
            for seed in range(2):
                result = session.detect("oca", seed=seed)
                assert result.engine_stats.shipping == "inline"
                assert result.engine_stats.tasks_dispatched > 0
                assert result.engine_stats.worker_calls == 0
            samples = dict(
                line.rsplit(" ", 1)
                for line in session.registry.render().splitlines()
                if line and not line.startswith("#")
            )
        assert float(samples["repro_engine_worker_calls_total"]) == 0
        assert float(samples["repro_engine_chunk_tasks_count"]) == 0

    def test_pool_reuse_with_process_workers(self, graph):
        serial = get_detector("oca").detect(DetectionRequest(graph=graph, seed=7))
        with GraphSession(graph, workers=2) as session:
            first = session.detect("oca", seed=7)
            second = session.detect("oca", seed=7)
        assert first.cover == serial.cover
        assert second.cover == serial.cover
        assert second.stats["engine_pool"] == "reused"

    def test_per_call_batch_size_runs_on_the_session_pool(
        self, graph, start_method
    ):
        # batch_size is an OCA parameter, part of the cover's identity;
        # the session's pool runs it like any other call.
        start_method("fork")
        one_shot = get_detector("oca").detect(
            DetectionRequest(graph=graph, seed=2, params={"batch_size": 8})
        )
        with GraphSession(graph, workers=2) as session:
            session.detect("oca", seed=2)
            overridden = session.detect("oca", seed=2, batch_size=8)
        assert overridden.engine_stats.batch_size == 8
        assert overridden.stats["engine_pool"] == "reused"
        assert overridden.cover == one_shot.cover

    def test_config_batch_size_runs_on_the_session_pool(self, graph, start_method):
        from repro import OCAConfig

        start_method("fork")
        with GraphSession(graph, workers=2) as session:
            session.detect("oca", seed=2)
            result = session.detect("oca", seed=2, config=OCAConfig(batch_size=8))
        assert result.engine_stats.batch_size == 8
        assert result.engine_stats.workers == 2
        assert result.stats["engine_pool"] == "reused"

    def test_incompatible_config_rebuilds_pool(self, graph, start_method):
        from repro import OCAConfig

        start_method("fork")
        with GraphSession(graph, workers=2) as session:
            session.detect("oca", seed=0)
            # A different c changes the shipped fitness: the session's
            # pool must be torn down and rebuilt, not silently reused.
            other = session.detect(
                "oca", seed=0, config=OCAConfig(c=0.25)
            )
            again = session.detect(
                "oca", seed=0, config=OCAConfig(c=0.25)
            )
        assert other.stats["engine_pool"] == "fresh"
        assert again.stats["engine_pool"] == "reused"


class TestSpectralCacheSemantics:
    def test_mutation_invalidates_cached_spectrum(self, graph):
        from repro import compile_graph
        from repro.core.vector_space import shared_admissible_c

        c1, hit1 = shared_admissible_c(graph)
        _, hit2 = shared_admissible_c(graph)
        assert (hit1, hit2) == (False, True)
        before = compile_graph(graph)
        assert before.spectral_cache
        graph.add_edge(0, 10)
        after = compile_graph(graph)
        assert after is not before
        _, hit3 = shared_admissible_c(graph)
        assert hit3 is False

    def test_cache_travels_through_pickle(self, graph):
        import pickle

        from repro import compile_graph
        from repro.core.vector_space import shared_admissible_c

        c, _ = shared_admissible_c(graph)
        compiled = compile_graph(graph)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.spectral_cache == compiled.spectral_cache
        c2, hit = shared_admissible_c(clone)
        assert hit is True
        assert c2 == c
