"""Unit and integration tests for the OCA driver."""

import pytest

from repro import OCA, OCAConfig
from repro.communities import theta
from repro.core import MaxRunsHalting, StagnationHalting
from repro.errors import AlgorithmError, ConfigurationError
from repro.generators import (
    complete_graph,
    daisy_graph,
    ring_of_cliques,
    two_cliques_bridged,
)
from repro.graph import Graph, compile_graph

from ..conftest import detect


class TestConfig:
    def test_defaults_valid(self):
        config = OCAConfig()
        assert config.halting is not None
        assert 0 <= config.seed_fraction <= 1

    def test_c_validated(self):
        with pytest.raises(ConfigurationError):
            OCAConfig(c=1.0)

    def test_seed_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            OCAConfig(seed_fraction=-0.1)

    def test_min_size_validated(self):
        with pytest.raises(ConfigurationError):
            OCAConfig(min_community_size=0)

    def test_merge_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            OCAConfig(merge_threshold=0.0)

    def test_max_growth_steps_validated(self):
        with pytest.raises(ConfigurationError):
            OCAConfig(max_growth_steps=-5)

    def test_spectral_solver_validated(self):
        with pytest.raises(ConfigurationError):
            OCAConfig(spectral_solver="qr")
        assert OCAConfig(spectral_solver="lanczos").spectral_solver == "lanczos"


class TestDriver:
    def test_empty_graph(self):
        result = detect("oca", Graph(), seed=0)
        assert len(result.cover) == 0
        assert result.runs == 0

    def test_single_clique_found(self):
        result = detect("oca", complete_graph(6), seed=0)
        assert len(result.cover) == 1
        assert set(result.cover[0]) == set(range(6))

    def test_ring_of_cliques_exact(self):
        g, truth = ring_of_cliques(5, 6)
        result = detect("oca", g, seed=0)
        assert theta(truth, result.cover) == pytest.approx(1.0)

    def test_overlapping_cliques_exact(self):
        g, truth = two_cliques_bridged(6, 2)
        result = detect("oca", g, seed=1)
        assert theta(truth, result.cover) == pytest.approx(1.0)
        # The shared nodes must really appear in both communities.
        overlapping = result.cover.overlapping_nodes()
        assert overlapping == {4, 5}

    def test_deterministic_given_seed(self):
        g, _ = ring_of_cliques(4, 5)
        a = detect("oca", g, seed=123)
        b = detect("oca", g, seed=123)
        assert a.cover == b.cover
        assert a.c == pytest.approx(b.c)

    def test_different_seeds_allowed_to_differ(self):
        g = daisy_graph(seed=5).graph
        a = detect("oca", g, seed=1)
        b = detect("oca", g, seed=2)
        # Not asserting inequality (they may coincide); just both valid.
        assert len(a.cover) >= 1 and len(b.cover) >= 1

    def test_fixed_c_skips_spectral(self):
        g, _ = ring_of_cliques(4, 5)
        result = detect("oca", g, seed=0, c=0.25)
        assert result.c == 0.25

    def test_min_community_size_filters(self):
        g = Graph(edges=[(0, 1)])
        result = detect("oca", g, seed=0, min_community_size=3)
        assert len(result.cover) == 0
        assert result.discarded_small >= 1

    def test_max_runs_halting_respected(self):
        g, _ = ring_of_cliques(6, 5)
        config = OCAConfig(halting=MaxRunsHalting(max_runs=2))
        result = OCA(config).run(compile_graph(g), seed=0)
        assert result.runs <= 2

    def test_assign_orphans_covers_graph(self):
        g, _ = ring_of_cliques(4, 5)
        result = detect("oca", g, seed=0, assign_orphans=True)
        assert result.cover.covered_nodes() == set(g.nodes())

    def test_raw_cover_kept_alongside_merged(self):
        g = daisy_graph(seed=3).graph
        result = detect("oca", g, seed=3)
        assert len(result.raw_cover) >= len(result.cover)

    def test_fitness_values_align_with_raw_cover(self):
        g, _ = ring_of_cliques(4, 5)
        result = detect("oca", g, seed=0)
        assert len(result.fitness_values) == len(result.raw_cover)
        assert all(v > 0 for v in result.fitness_values)

    def test_elapsed_seconds_positive(self):
        g, _ = ring_of_cliques(3, 4)
        assert detect("oca", g, seed=0).elapsed_seconds > 0

    def test_config_and_overrides_conflict(self):
        with pytest.raises(AlgorithmError):
            detect("oca", Graph(), config=OCAConfig(), merge_threshold=0.5)

    def test_repr(self):
        g, _ = ring_of_cliques(3, 4)
        assert "OCAResult" in repr(detect("oca", g, seed=0))

    def test_custom_fitness_override(self):
        """Swapping in phi makes the driver engulf whole components —
        the Section-II degeneracy, reachable through configuration."""
        from repro.core import PhiFitness

        g, _ = ring_of_cliques(3, 4)
        config = OCAConfig(fitness=PhiFitness(c=0.3), merge_threshold=None)
        result = OCA(config).run(compile_graph(g), seed=0)
        assert set(result.cover[0]) == set(g.nodes())

    def test_custom_lfk_fitness_through_oca_machinery(self):
        """The LFK objective runs through OCA's seeding/halting stack via
        the full-scan (non-monotone) growth path."""
        from repro.core import LFKFitness

        g, truth = ring_of_cliques(4, 6)
        config = OCAConfig(fitness=LFKFitness(alpha=1.0))
        result = OCA(config).run(compile_graph(g), seed=0)
        assert theta(truth, result.cover) == pytest.approx(1.0)


class TestQualityBenchmarks:
    """End-to-end quality pins on the paper's benchmark families (small)."""

    def test_daisy_flower_recovered(self):
        instance = daisy_graph(seed=7)
        result = detect("oca", instance.graph, seed=7)
        assert theta(instance.communities, result.cover) >= 0.75

    def test_lfr_low_mixing_recovered(self):
        from repro.generators import LFRParams, lfr_graph

        instance = lfr_graph(LFRParams(n=300, mu=0.2), seed=5)
        result = detect("oca", instance.graph, seed=5, assign_orphans=True)
        assert theta(instance.communities, result.cover) >= 0.8

    def test_karate_club_factions_overlap(self, karate):
        graph, truth = karate
        result = detect("oca", graph, seed=0, assign_orphans=True)
        # Factions are fuzzy; demand better-than-random agreement.
        assert theta(truth, result.cover) >= 0.3
