"""Unit tests for the LFR benchmark generator."""

import pytest

from repro.errors import GeneratorError
from repro.generators import LFRParams, lfr_graph


class TestParams:
    def test_defaults_valid(self):
        LFRParams()

    def test_mu_validated(self):
        with pytest.raises(GeneratorError):
            LFRParams(mu=1.5)

    def test_max_degree_below_n(self):
        with pytest.raises(GeneratorError):
            LFRParams(n=40, max_degree=40)

    def test_average_vs_max_degree(self):
        with pytest.raises(GeneratorError):
            LFRParams(average_degree=60.0, max_degree=50)

    def test_community_bounds(self):
        with pytest.raises(GeneratorError):
            LFRParams(min_community=60, max_community=50)
        with pytest.raises(GeneratorError):
            LFRParams(n=40, max_community=50)


class TestInstance:
    @pytest.fixture(scope="class")
    def instance(self):
        return lfr_graph(LFRParams(n=500, mu=0.3), seed=11)

    def test_node_count(self, instance):
        assert instance.graph.number_of_nodes() == 500

    def test_ground_truth_partitions_nodes(self, instance):
        assert instance.communities.covered_nodes() == set(range(500))
        assert not instance.communities.overlapping_nodes()

    def test_community_sizes_in_bounds(self, instance):
        sizes = instance.communities.size_distribution()
        assert min(sizes) >= instance.params.min_community
        # One community may exceed max via remainder folding; allow slack.
        assert max(sizes) <= instance.params.max_community + instance.params.min_community

    def test_realized_mixing_near_target(self, instance):
        assert instance.realized_mu == pytest.approx(0.3, abs=0.08)

    def test_realized_average_degree_near_target(self, instance):
        assert instance.realized_average_degree == pytest.approx(
            instance.params.average_degree, rel=0.25
        )

    def test_max_degree_respected(self, instance):
        max_degree = max(
            instance.graph.degree(v) for v in instance.graph.nodes()
        )
        assert max_degree <= instance.params.max_degree

    def test_few_dropped_stubs(self, instance):
        total_stubs = 2 * instance.graph.number_of_edges()
        assert instance.dropped_stubs <= 0.05 * total_stubs

    def test_deterministic(self):
        a = lfr_graph(LFRParams(n=200), seed=3)
        b = lfr_graph(LFRParams(n=200), seed=3)
        assert a.graph == b.graph
        assert a.communities == b.communities

    def test_different_seeds_differ(self):
        a = lfr_graph(LFRParams(n=200), seed=3)
        b = lfr_graph(LFRParams(n=200), seed=4)
        assert a.graph != b.graph

    def test_repr(self, instance):
        assert "LFRInstance" in repr(instance)


class TestOverlap:
    PARAMS = LFRParams(n=400, mu=0.3, on=40, om=2, min_community=20, max_community=60)

    def test_on_validated(self):
        with pytest.raises(GeneratorError):
            LFRParams(on=-1)
        with pytest.raises(GeneratorError):
            LFRParams(n=100, max_degree=50, on=101)

    def test_om_validated(self):
        with pytest.raises(GeneratorError):
            LFRParams(om=1)

    def test_om_beyond_sampled_communities(self):
        # 400 nodes in communities of >= 200 leaves at most 2 communities.
        params = LFRParams(
            n=400, on=10, om=5, min_community=200, max_community=200
        )
        with pytest.raises(GeneratorError, match="om"):
            lfr_graph(params, seed=1)

    def test_exactly_on_nodes_overlap(self):
        instance = lfr_graph(self.PARAMS, seed=7)
        memberships = {}
        for block in instance.communities:
            for node in block:
                memberships[node] = memberships.get(node, 0) + 1
        overlapping = {node for node, count in memberships.items() if count > 1}
        assert len(overlapping) == self.PARAMS.on
        assert max(memberships.values()) == self.PARAMS.om
        assert instance.overlapping_nodes == self.PARAMS.on
        assert instance.communities.overlapping_nodes() == overlapping

    def test_overlap_instance_deterministic(self):
        a = lfr_graph(self.PARAMS, seed=7)
        b = lfr_graph(self.PARAMS, seed=7)
        assert a.graph == b.graph
        assert a.communities == b.communities

    def test_overlap_mixing_near_target(self):
        instance = lfr_graph(self.PARAMS, seed=7)
        assert instance.realized_mu == pytest.approx(0.3, abs=0.1)

    def test_disjoint_default_rng_stream_unchanged(self):
        # on defaults to 0 and must not consume any rng draws, so seeded
        # disjoint instances are byte-identical to the pre-knob generator.
        classic = lfr_graph(LFRParams(n=200), seed=3)
        explicit = lfr_graph(LFRParams(n=200, on=0, om=4), seed=3)
        assert classic.graph == explicit.graph
        assert classic.communities == explicit.communities
        assert classic.overlapping_nodes == 0


class TestMixingSweep:
    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.8])
    def test_realized_mu_tracks_parameter(self, mu):
        instance = lfr_graph(LFRParams(n=400, mu=mu), seed=7)
        assert instance.realized_mu == pytest.approx(mu, abs=0.1)

    def test_high_mu_blurs_structure(self):
        low = lfr_graph(LFRParams(n=400, mu=0.1), seed=7)
        high = lfr_graph(LFRParams(n=400, mu=0.8), seed=7)

        def internal_fraction(instance):
            total = instance.graph.number_of_edges()
            inside = sum(instance.graph.edges_inside(c) for c in instance.communities)
            return inside / total

        assert internal_fraction(low) > internal_fraction(high)
