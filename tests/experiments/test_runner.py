"""Unit tests for the algorithm runner."""

import pytest

from repro._rng import spawn_streams
from repro.errors import AlgorithmError
from repro.experiments import ALGORITHMS, run_algorithm, run_replicates
from repro.generators import ring_of_cliques


@pytest.fixture(scope="module")
def ring():
    return ring_of_cliques(4, 5)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_each_algorithm_runs(ring, name):
    g, truth = ring
    run = run_algorithm(name, g, seed=0)
    assert run.algorithm == name
    assert len(run.cover) >= 1
    assert run.elapsed_seconds >= 0.0


def test_quality_mode_covers_all_nodes(ring):
    g, _ = ring
    run = run_algorithm("OCA", g, seed=0, quality_mode=True)
    assert run.cover.covered_nodes() == set(g.nodes())


def test_raw_mode_skips_postprocessing(ring):
    g, _ = ring
    quality = run_algorithm("LFK", g, seed=0, quality_mode=True)
    raw = run_algorithm("LFK", g, seed=0, quality_mode=False)
    # Raw mode must not add orphan assignments.
    assert len(raw.cover.covered_nodes()) <= len(quality.cover.covered_nodes())


def test_unknown_algorithm_raises(ring):
    g, _ = ring
    with pytest.raises(AlgorithmError):
        run_algorithm("Louvain", g)


def test_deterministic_given_seed(ring):
    g, _ = ring
    a = run_algorithm("OCA", g, seed=77)
    b = run_algorithm("OCA", g, seed=77)
    assert a.cover == b.cover


def test_engine_options_forwarded(ring):
    g, _ = ring
    sequential = run_algorithm("OCA", g, seed=77)
    parallel = run_algorithm("OCA", g, seed=77, workers=4, batch_size=1)
    assert parallel.cover == sequential.cover


class TestRunReplicates:
    def test_replicate_count_and_order(self, ring):
        g, _ = ring
        runs = run_replicates("OCA", g, replicates=3, seed=5)
        assert len(runs) == 3
        assert all(len(run.cover) >= 1 for run in runs)

    def test_identical_across_worker_counts(self, ring):
        g, _ = ring
        serial = run_replicates("OCA", g, replicates=4, seed=5)
        fanned = run_replicates("OCA", g, replicates=4, seed=5, workers=2)
        assert [r.cover for r in fanned] == [r.cover for r in serial]

    def test_replicates_use_private_stream_seeds(self, ring):
        # Replicate i must behave exactly like a standalone run with its
        # stream seed — catches a regression handing every replicate the
        # same seed (covers may still coincide on easy graphs, so the
        # seed wiring is what's asserted, not cover inequality).
        g, _ = ring
        seeds = spawn_streams(5, 3)
        assert len(set(seeds)) == 3
        runs = run_replicates("OCA", g, replicates=3, seed=5)
        for stream_seed, run in zip(seeds, runs):
            standalone = run_algorithm("OCA", g, seed=stream_seed)
            assert run.cover == standalone.cover

    def test_inline_replicates_leave_no_graph_behind(self, ring):
        # One worker runs on the caller's graph; the worker-side global
        # must not keep it (and its compiled form) alive afterwards.
        from repro.experiments import runner

        g, _ = ring
        run_replicates("OCA", g, replicates=2, seed=5)
        assert runner._REPLICATE_GRAPH is None

    def test_replicates_validated(self, ring):
        g, _ = ring
        with pytest.raises(AlgorithmError):
            run_replicates("OCA", g, replicates=0)


class TestRunSweep:
    """Multi-graph sweeps routed through one SessionManager."""

    def _graphs(self):
        return [ring_of_cliques(3, 5)[0], ring_of_cliques(4, 4)[0]]

    def test_sweep_matches_run_replicates_per_graph(self):
        from repro.experiments import run_sweep

        graphs = self._graphs()
        sweep = run_sweep("OCA", graphs, replicates=2, seed=9)
        graph_seeds = spawn_streams(9, len(graphs))
        for index, graph in enumerate(graphs):
            reference = run_replicates(
                "OCA", graph.copy(), replicates=2, seed=graph_seeds[index]
            )
            assert [run.cover for run in sweep[index]] == [
                run.cover for run in reference
            ]

    def test_sweep_reuses_warm_sessions(self):
        from repro.experiments import run_sweep
        from repro.serving import SessionManager

        graphs = self._graphs()
        with SessionManager(max_sessions=2) as manager:
            run_sweep("OCA", graphs, replicates=3, seed=1, manager=manager)
            # One bind per graph; every further replicate was a hit.
            assert manager.stats.misses == len(graphs)
            assert manager.stats.hits == len(graphs) * 2
            assert not manager.closed  # shared managers stay open

    def test_sweep_on_a_pooled_manager_matches_inline(self):
        from repro.experiments import run_sweep
        from repro.serving import SessionManager

        graphs = self._graphs()
        default = run_sweep("OCA", graphs, replicates=1, seed=4)
        # A pool never changes covers — only where they run.
        with SessionManager(max_sessions=len(graphs), workers=2) as manager:
            pooled = run_sweep("OCA", graphs, replicates=1, seed=4, manager=manager)
        assert [runs[0].cover for runs in pooled] == [
            runs[0].cover for runs in default
        ]

    def test_sweep_works_for_sequential_baselines(self):
        from repro.experiments import run_sweep

        graphs = self._graphs()
        sweep = run_sweep("cpm", graphs, replicates=1, seed=0)
        assert all(len(runs[0].cover) >= 1 for runs in sweep)

    def test_sweep_validates_replicates(self):
        from repro.experiments import run_sweep

        with pytest.raises(AlgorithmError):
            run_sweep("OCA", self._graphs(), replicates=0)

    def test_sweep_rejects_explicit_zero_max_sessions(self):
        from repro.errors import ConfigurationError
        from repro.experiments import run_sweep

        with pytest.raises(ConfigurationError):
            run_sweep("OCA", self._graphs(), replicates=1, max_sessions=0)
