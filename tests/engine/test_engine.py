"""Unit tests for the scheduler, reducer, and engine orchestration."""

import random

import pytest

from repro._rng import as_random
from repro.core import (
    CoverageHalting,
    DirectedLaplacianFitness,
    MaxRunsHalting,
    StagnationHalting,
    make_seeding,
)
from repro.engine import BatchScheduler, CoverReducer, ExecutionEngine
from repro.engine.tasks import GrowthTaskResult
from repro.errors import ConfigurationError
from repro.generators import ring_of_cliques, two_cliques_bridged
from repro.graph import compile_graph


def _scheduler(graph, batch_size, seed=0, seeding="uncovered"):
    return BatchScheduler(
        graph,
        make_seeding(seeding),
        rng=as_random(seed),
        seed_fraction=0.6,
        batch_size=batch_size,
    )


def _result(index, members, seed_node=None, fitness=1.0):
    members = frozenset(members)
    if seed_node is None:
        seed_node = next(iter(members))
    return GrowthTaskResult(
        index=index,
        seed_node=seed_node,
        members=members,
        fitness_value=fitness,
        steps=1,
        converged=True,
    )


class TestBatchScheduler:
    def test_batch_size_respected(self):
        g, _ = ring_of_cliques(4, 5)
        batch = _scheduler(g, batch_size=6).next_batch(set())
        assert len(batch) == 6

    def test_indices_are_global_and_sequential(self):
        g, _ = ring_of_cliques(4, 5)
        scheduler = _scheduler(g, batch_size=5)
        first = scheduler.next_batch(set())
        second = scheduler.next_batch(set())
        assert [t.index for t in first + second] == list(range(10))
        assert scheduler.tasks_issued == 10

    def test_initial_members_contain_seed_node(self):
        g, _ = ring_of_cliques(4, 5)
        for task in _scheduler(g, batch_size=8).next_batch(set()):
            assert task.seed_node in task.initial_members

    def test_deterministic_task_stream(self):
        g, _ = ring_of_cliques(4, 5)
        a = _scheduler(g, batch_size=20).next_batch(set())
        b = _scheduler(g, batch_size=20).next_batch(set())
        assert a == b

    def test_exhaustion_on_full_coverage(self):
        g, _ = ring_of_cliques(3, 4)
        scheduler = _scheduler(g, batch_size=4)
        assert scheduler.next_batch(set(g.nodes())) == []
        assert scheduler.exhausted

    def test_invalid_batch_size(self):
        g, _ = ring_of_cliques(3, 4)
        with pytest.raises(ConfigurationError):
            _scheduler(g, batch_size=0)


class TestCoverReducer:
    def test_dedup_and_coverage(self):
        reducer = CoverReducer(10, 1, StagnationHalting(patience=5))
        reducer.fold([_result(0, {1, 2, 3}), _result(1, {1, 2, 3}), _result(2, {4, 5})])
        assert len(reducer.found) == 2
        assert reducer.duplicate_runs == 1
        assert reducer.covered == {1, 2, 3, 4, 5}
        assert reducer.stats.covered_fraction == pytest.approx(0.5)

    def test_small_communities_discarded(self):
        reducer = CoverReducer(10, 3, StagnationHalting(patience=5))
        reducer.fold([_result(0, {1, 2})])
        assert reducer.discarded_small == 1
        assert not reducer.found

    def test_fold_sorts_by_task_index(self):
        reducer = CoverReducer(10, 1, MaxRunsHalting(max_runs=1))
        # Result 1 arrives before result 0; only index 0 must be folded.
        stopped = reducer.fold([_result(1, {4, 5}), _result(0, {1, 2})])
        assert stopped
        assert list(reducer.found) == [frozenset({1, 2})]

    def test_halting_discards_remainder(self):
        reducer = CoverReducer(10, 1, MaxRunsHalting(max_runs=2))
        stopped = reducer.fold([_result(i, {i}) for i in range(6)])
        assert stopped
        assert reducer.stats.runs == 2
        assert reducer.discarded_after_halt == 4

    def test_consecutive_duplicates_reset(self):
        reducer = CoverReducer(10, 1, StagnationHalting(patience=50))
        reducer.fold([_result(0, {1, 2}), _result(1, {1, 2}), _result(2, {3, 4})])
        assert reducer.stats.consecutive_duplicates == 0

    def test_stale_seed_skipped_without_counting(self):
        reducer = CoverReducer(
            10, 1, MaxRunsHalting(max_runs=100), skip_stale_seeds=True
        )
        reducer.fold(
            [
                _result(0, {1, 2, 3}, seed_node=1),
                # Seed node 2 was covered by result 0: a sequential run
                # would never have launched this task.
                _result(1, {1, 2, 3, 4}, seed_node=2),
                _result(2, {7, 8}, seed_node=7),
            ]
        )
        assert reducer.discarded_stale == 1
        assert reducer.stats.runs == 2
        assert frozenset({1, 2, 3, 4}) not in reducer.found


class TestEngineHaltingEquivalence:
    """Batched execution honours the sequential stopping semantics."""

    def _run(self, halting, batch_size, workers=1, seed=3):
        g, _ = ring_of_cliques(6, 5)
        with ExecutionEngine(workers=workers) as engine:
            return engine.run(
                compile_graph(g),
                fitness=DirectedLaplacianFitness(0.25),
                seeding=make_seeding("random"),
                halting=halting,
                seed=seed,
                min_community_size=2,
                batch_size=batch_size,
            )

    def test_max_runs_never_overshoots(self):
        for batch_size in (1, 4, 16):
            outcome = self._run(MaxRunsHalting(max_runs=5), batch_size)
            assert outcome.run_stats.runs == 5

    def test_batched_matches_sequential_stats(self):
        # Random seeding consumes one RNG draw per proposal regardless of
        # coverage, so a fixed run budget yields identical folded runs,
        # covers, and statistics for every batch size.
        sequential = self._run(MaxRunsHalting(max_runs=10), batch_size=1)
        for batch_size in (2, 5, 16):
            batched = self._run(MaxRunsHalting(max_runs=10), batch_size=batch_size)
            assert batched.found == sequential.found
            assert batched.run_stats == sequential.run_stats

    def test_coverage_halting_respected(self):
        outcome = self._run(
            CoverageHalting(target_fraction=0.5, max_runs=1000), batch_size=8
        )
        assert outcome.run_stats.covered_fraction >= 0.5

    def test_speculative_results_accounted(self):
        outcome = self._run(MaxRunsHalting(max_runs=3), batch_size=16)
        stats = outcome.engine_stats
        assert stats.tasks_dispatched == stats.tasks_folded + stats.tasks_discarded
        assert stats.tasks_discarded >= 13
        assert 0.0 < stats.speculation_waste < 1.0

    def test_stagnation_halting_terminates(self):
        outcome = self._run(StagnationHalting(patience=5), batch_size=8)
        assert outcome.run_stats.runs > 0

    def test_engine_stats_summary_renders(self):
        outcome = self._run(MaxRunsHalting(max_runs=4), batch_size=4)
        summary = outcome.engine_stats.summary()
        assert "workers=1" in summary and "batch=4" in summary
        assert "ship=inline" in summary

    def test_zero_workers_means_one_per_cpu(self):
        import os

        outcome = self._run(MaxRunsHalting(max_runs=4), batch_size=4, workers=0)
        assert outcome.engine_stats.workers == (os.cpu_count() or 1)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ExecutionEngine(workers=-1)


class TestStalenessGuard:
    def test_no_merged_blob_under_speculation(self):
        """The guard keeps batched covers faithful on overlap instances:
        without it, a speculative task seeded inside an already-found
        clique can grow the two-clique union and wreck the cover."""
        from repro.communities import theta

        from ..conftest import detect

        g, truth = two_cliques_bridged(6, 2)
        result = detect("oca", g, seed=1, workers=2, batch_size=16)
        assert theta(truth, result.cover) == pytest.approx(1.0)

    def test_batch_records_kept(self):
        g, _ = ring_of_cliques(4, 5)
        outcome = ExecutionEngine().run(
            compile_graph(g),
            fitness=DirectedLaplacianFitness(0.25),
            seeding=make_seeding("uncovered"),
            halting=StagnationHalting(patience=10),
            seed=0,
            min_community_size=2,
            batch_size=4,
        )
        records = outcome.engine_stats.records
        assert records
        assert [r.index for r in records] == list(range(len(records)))
        assert sum(r.tasks for r in records) == outcome.engine_stats.tasks_dispatched


class TestCloseHooks:
    """Pool shutdown hooks: the serving layer's lifecycle signal."""

    def _run(self, engine, graph, batch_size=1):
        return engine.run(
            compile_graph(graph),
            fitness=DirectedLaplacianFitness(0.25),
            seeding=make_seeding("uncovered"),
            halting=StagnationHalting(patience=10),
            seed=0,
            min_community_size=2,
            batch_size=batch_size,
        )

    def test_hook_fires_on_each_real_teardown(self, start_method):
        start_method("fork")
        g, _ = ring_of_cliques(4, 5)
        closures = []
        engine = ExecutionEngine(workers=2)
        engine.add_close_hook(lambda: closures.append("closed"))
        self._run(engine, g)
        assert engine.pool_active
        assert closures == []
        engine.close()
        assert closures == ["closed"]
        assert not engine.pool_active
        engine.close()  # nothing open: no extra firing
        assert closures == ["closed"]

    def test_hook_fires_when_incompatible_context_replaces_pool(
        self, start_method
    ):
        start_method("fork")
        g, _ = ring_of_cliques(4, 5)
        closures = []
        engine = ExecutionEngine(workers=2)
        engine.add_close_hook(lambda: closures.append("closed"))
        self._run(engine, g)
        # A different fitness ships an incompatible context: the old
        # pool must be torn down (hook fires) before the new one opens.
        engine.run(
            compile_graph(g),
            fitness=DirectedLaplacianFitness(0.5),
            seeding=make_seeding("uncovered"),
            halting=StagnationHalting(patience=10),
            seed=0,
            min_community_size=2,
        )
        assert closures == ["closed"]
        engine.close()
        assert closures == ["closed", "closed"]

    def test_inline_engine_holds_no_pool(self, pool_executors):
        g, _ = ring_of_cliques(4, 5)
        closures = []
        with ExecutionEngine() as engine:
            engine.add_close_hook(lambda: closures.append("closed"))
            outcomes = [self._run(engine, g, size) for size in (1, 4)]
            assert not engine.pool_active
        assert [o.engine_stats.shipping for o in outcomes] == ["inline"] * 2
        assert [o.engine_stats.pool_reused for o in outcomes] == [False] * 2
        assert pool_executors == []
        assert closures == []

    def test_batch_size_keeps_the_pool(self, start_method, pool_executors):
        start_method("fork")
        g, _ = ring_of_cliques(4, 5)
        closures = []
        with ExecutionEngine(workers=2) as engine:
            engine.add_close_hook(lambda: closures.append("closed"))
            outcomes = [self._run(engine, g, size) for size in (1, 4, 8)]
            assert [o.engine_stats.pool_reused for o in outcomes] == [
                False, True, True,
            ]
            assert [o.engine_stats.batch_size for o in outcomes] == [1, 4, 8]
            assert len(pool_executors) == 1
            assert closures == []
            engine.close()
            assert closures == ["closed"]

    def test_with_block_closes_the_pool(self, start_method, pool_executors):
        start_method("fork")
        g, _ = ring_of_cliques(4, 5)
        closures = []
        with ExecutionEngine(workers=2) as engine:
            engine.add_close_hook(lambda: closures.append("closed"))
            self._run(engine, g)
            assert engine.pool_active
        assert not engine.pool_active
        assert len(pool_executors) == 1
        assert closures == ["closed"]
