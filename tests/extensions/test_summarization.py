"""Unit tests for the graph summarization extension."""

import pytest

from repro.communities import Cover
from repro.errors import CommunityError
from repro.extensions import reconstruction_error, summarize_graph
from repro.extensions.summarization import RESIDUAL, Superedge, Supernode
from repro.generators import complete_graph, ring_of_cliques, two_cliques_bridged
from repro.graph import Graph


class TestSummarizeGraph:
    def test_supernode_per_community(self):
        g, cover = ring_of_cliques(4, 5)
        model = summarize_graph(g, cover)
        assert len(model.supernodes) == 4

    def test_supernode_statistics(self):
        g, cover = ring_of_cliques(4, 5)
        model = summarize_graph(g, cover)
        for supernode in model.supernodes:
            assert supernode.size == 5
            assert supernode.internal_edges == 10
            assert supernode.internal_density == pytest.approx(1.0)

    def test_superedges_are_ring_bridges(self):
        g, cover = ring_of_cliques(4, 5)
        model = summarize_graph(g, cover)
        assert len(model.superedges) == 4
        assert all(e.cross_edges == 1 for e in model.superedges)

    def test_shared_nodes_tracked(self):
        g, cover = two_cliques_bridged(6, 2)
        model = summarize_graph(g, cover)
        assert len(model.superedges) == 1
        assert model.superedges[0].shared_nodes == 2

    def test_residual_supernode_for_orphans(self):
        g = complete_graph(4)
        g.add_edge(0, 77)
        g.add_edge(77, 78)
        model = summarize_graph(g, Cover([{0, 1, 2, 3}]))
        residual = model.supernode(RESIDUAL)
        assert residual.size == 2
        assert residual.internal_edges == 1

    def test_membership_total(self):
        g, cover = ring_of_cliques(3, 4)
        model = summarize_graph(g, cover)
        assert set(model.membership) == set(g.nodes())

    def test_compression_ratio_positive(self):
        g, cover = ring_of_cliques(5, 6)
        model = summarize_graph(g, cover)
        assert model.compression_ratio() > 5.0

    def test_supernode_lookup_missing(self):
        g, cover = ring_of_cliques(3, 4)
        model = summarize_graph(g, cover)
        with pytest.raises(KeyError):
            model.supernode(99)


class TestExpectedAdjacency:
    @pytest.fixture
    def model(self):
        g, cover = ring_of_cliques(3, 5)
        return summarize_graph(g, cover), g

    def test_intra_community_pair(self, model):
        summary, _ = model
        assert summary.expected_adjacency(0, 1) == pytest.approx(1.0)

    def test_cross_community_pair(self, model):
        summary, _ = model
        # Bridge density: 1 cross edge / 25 possible pairs.
        assert summary.expected_adjacency(0, 5) == pytest.approx(1 / 25)

    def test_self_pair_zero(self, model):
        summary, _ = model
        assert summary.expected_adjacency(0, 0) == 0.0

    def test_overlap_pair_uses_best_shared_community(self):
        g, cover = two_cliques_bridged(6, 2)
        model = summarize_graph(g, cover)
        # Two shared nodes sit in both cliques (density 1 each).
        shared = sorted(cover.overlapping_nodes())
        assert model.expected_adjacency(shared[0], shared[1]) == pytest.approx(1.0)


class TestReconstructionError:
    def test_perfect_summary_of_disjoint_cliques(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2), (5, 6)])
        cover = Cover([{0, 1, 2}, {5, 6}])
        model = summarize_graph(g, cover)
        assert reconstruction_error(g, model) == pytest.approx(0.0)

    def test_better_cover_means_lower_error(self):
        g, truth = ring_of_cliques(4, 5)
        good = summarize_graph(g, truth)
        bad = summarize_graph(g, Cover([set(g.nodes())]))
        assert reconstruction_error(g, good) < reconstruction_error(g, bad)

    def test_small_graph_validated(self):
        g = Graph(nodes=[1])
        with pytest.raises(CommunityError):
            reconstruction_error(g, summarize_graph(g, Cover([{1}])))

    def test_error_bounds(self):
        g, truth = ring_of_cliques(3, 4)
        model = summarize_graph(g, truth)
        assert 0.0 <= reconstruction_error(g, model) <= 1.0


class TestSummaryParts:
    def test_singleton_supernode_density_zero(self):
        assert Supernode(index=0, size=1, internal_edges=0).internal_density == 0.0

    def test_superedge_density(self):
        edge = Superedge(a=0, b=1, cross_edges=3, shared_nodes=0)
        assert edge.density(2, 3) == pytest.approx(0.5)
        assert edge.density(0, 3) == 0.0

    def test_empty_graph_compresses_to_nothing(self):
        model = summarize_graph(Graph(), Cover())
        assert model.supernodes == []
        assert model.compression_ratio() == float("inf")

    def test_unrelated_pair_expects_no_edge(self):
        g = Graph(edges=[(0, 1), (5, 6)])
        model = summarize_graph(g, Cover([{0, 1}, {5, 6}]))
        assert model.superedges == []
        assert model.expected_adjacency(0, 5) == 0.0

    def test_overlapping_node_listed_in_every_community(self):
        g, cover = two_cliques_bridged(6, 2)
        model = summarize_graph(g, cover)
        for node in cover.overlapping_nodes():
            assert sorted(model.membership[node]) == [0, 1]
