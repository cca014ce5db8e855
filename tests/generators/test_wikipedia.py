"""Unit tests for the Wikipedia-like graph generator."""

import pytest

from repro.errors import GeneratorError
from repro.generators import WikipediaParams, wikipedia_like_graph
from repro.graph import connected_components

from ..conftest import degrees


class TestParams:
    def test_defaults_valid(self):
        WikipediaParams()

    def test_n_validated(self):
        with pytest.raises(GeneratorError):
            WikipediaParams(n=5)

    def test_attachment_validated(self):
        with pytest.raises(GeneratorError):
            WikipediaParams(n=100, attachment=0)
        with pytest.raises(GeneratorError):
            WikipediaParams(n=100, attachment=100)

    def test_memberships_validated(self):
        with pytest.raises(GeneratorError):
            WikipediaParams(topic_memberships=0.5)


class TestInstance:
    @pytest.fixture(scope="class")
    def instance(self):
        return wikipedia_like_graph(WikipediaParams(n=2000, topics=20), seed=6)

    def test_node_count(self, instance):
        assert instance.graph.number_of_nodes() == 2000

    def test_backbone_makes_graph_connected(self, instance):
        assert len(connected_components(instance.graph)[0]) == 2000

    def test_heavy_tail_degree_distribution(self, instance):
        values = degrees(instance.graph).values()
        max_degree = max(values)
        mean_degree = sum(values) / 2000
        # Scale-free signature: hub degree far above the mean.
        assert max_degree > 8 * mean_degree

    def test_topics_cover_nodes(self, instance):
        assert instance.topics.covered_nodes() == set(range(2000))

    def test_overlapping_topic_memberships(self, instance):
        # topic_memberships = 1.3 -> ~30% of articles in 2+ topics.
        overlapping = len(instance.topics.overlapping_nodes())
        assert 0.1 * 2000 < overlapping < 0.6 * 2000

    def test_deterministic(self):
        a = wikipedia_like_graph(WikipediaParams(n=500, topics=10), seed=1)
        b = wikipedia_like_graph(WikipediaParams(n=500, topics=10), seed=1)
        assert a.graph == b.graph

    def test_repr(self, instance):
        assert "WikipediaInstance" in repr(instance)
