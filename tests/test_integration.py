"""Cross-module integration tests: full pipelines end to end."""

import io

import pytest

from repro import Graph
from repro.communities import Cover, overlap_statistics, rho, theta, write_cover
from repro.communities.report import match_table
from repro.experiments import run_algorithm
from repro.extensions import hierarchical_oca, reconstruction_error, summarize_graph
from repro.generators import (
    LFRParams,
    daisy_tree,
    lfr_graph,
    ring_of_cliques,
    two_cliques_bridged,
)
from repro.graph import compile_graph, read_edge_list, write_edge_list

from .conftest import detect, read_cover


class TestRoundTripPipeline:
    """Generate -> serialise -> reload -> detect -> serialise -> reload."""

    def test_full_file_round_trip(self, tmp_path):
        instance = daisy_tree(flowers=3, seed=1)
        graph_path = tmp_path / "graph.txt"
        write_edge_list(instance.graph, graph_path)
        reloaded = read_edge_list(graph_path)
        # Isolated nodes (if any) are lost by edge lists; daisy trees
        # have none at default densities.
        assert reloaded.number_of_edges() == instance.graph.number_of_edges()

        result = detect("oca", reloaded, seed=1)
        cover_path = tmp_path / "cover.txt"
        write_cover(result.cover, cover_path)
        restored = read_cover(cover_path)
        assert restored == result.cover

    def test_cover_evaluable_after_round_trip(self, tmp_path):
        instance = daisy_tree(flowers=2, seed=2)
        result = detect("oca", instance.graph, seed=2)
        buffer = io.StringIO()
        write_cover(result.cover, buffer)
        buffer.seek(0)
        restored = read_cover(buffer)
        assert theta(instance.communities, restored) == pytest.approx(
            theta(instance.communities, result.cover)
        )


class TestCrossAlgorithmAgreement:
    """On unambiguous instances all three algorithms agree."""

    def test_ring_of_cliques_consensus(self):
        g, truth = ring_of_cliques(4, 6)
        covers = {
            "oca": detect("oca", g, seed=0).cover,
            "lfk": detect("lfk", g, seed=0).cover,
            "cfinder": detect("cfinder", g).cover,
        }
        for name, cover in covers.items():
            assert theta(truth, cover) == pytest.approx(1.0), name

    def test_metrics_agree_on_identical_covers(self):
        g, truth = ring_of_cliques(4, 6)
        found = detect("oca", g, seed=0).cover
        assert theta(truth, found) == pytest.approx(1.0)
        matches = match_table(truth, found)
        assert all(m.verdict == "exact" and m.best_rho == 1.0 for m in matches)
        assert overlap_statistics(found) == overlap_statistics(truth)

    def test_overlap_instance_separates_partitioners(self):
        g, truth = two_cliques_bridged(7, 2)
        overlapping_quality = theta(truth, detect("oca", g, seed=1).cover)
        partition_quality = theta(truth, detect("modularity_greedy", g).cover)
        assert overlapping_quality > partition_quality


class TestEndToEndLFR:
    def test_generate_detect_evaluate_summarize(self):
        instance = lfr_graph(LFRParams(n=400, mu=0.25), seed=9)
        run = run_algorithm("OCA", instance.graph, seed=9, quality_mode=True)
        quality = theta(instance.communities, run.cover)
        assert quality >= 0.8

        model = summarize_graph(instance.graph, run.cover)
        assert model.compression_ratio() > 3.0
        error = reconstruction_error(instance.graph, model)
        assert 0.0 <= error <= 0.5

    def test_hierarchy_on_detected_communities(self):
        g, truth = ring_of_cliques(6, 5)
        hierarchy = hierarchical_oca(g, levels=2, seed=0)
        assert theta(truth, hierarchy[0].cover) == pytest.approx(1.0)
        if len(hierarchy) > 1:
            assert len(hierarchy[1].cover) < len(hierarchy[0].cover)


class TestDeterminismAcrossTheStack:
    def test_same_seed_same_everything(self):
        instance_a = lfr_graph(LFRParams(n=300, mu=0.3), seed=5)
        instance_b = lfr_graph(LFRParams(n=300, mu=0.3), seed=5)
        assert instance_a.graph == instance_b.graph

        result_a = detect("oca", instance_a.graph, seed=8)
        result_b = detect("oca", instance_b.graph, seed=8)
        assert result_a.cover == result_b.cover

        lfk_a = detect("lfk", instance_a.graph, seed=8)
        lfk_b = detect("lfk", instance_b.graph, seed=8)
        assert lfk_a.cover == lfk_b.cover


class TestPaperExamples:
    """Sanity pins taken directly from the paper's text."""

    def test_example_2_independent_set(self):
        """phi(independent S) = |S| (Example 2)."""
        from repro.core import phi

        g = Graph(edges=[(0, 1), (2, 3)])
        assert phi(g, {0, 2}, 0.5) == pytest.approx(2.0)

    def test_example_2_clique_quadratic(self):
        """phi(K_k) = c k^2 + (1-c) k (Example 2)."""
        from repro.core import phi
        from repro.generators import complete_graph

        g = complete_graph(5)
        c = 0.25
        k = 5
        assert phi(g, set(range(5)), c) == pytest.approx(c * k * k + (1 - c) * k)

    def test_phi_single_maximum_is_whole_graph(self):
        """Section II: 'there exists only one maximum, the entire graph'."""
        from repro.core import PhiFitness, grow_community

        g, _ = ring_of_cliques(3, 4)
        result = grow_community(compile_graph(g), [0], PhiFitness(c=0.4))
        assert result.members == frozenset(g.nodes())
