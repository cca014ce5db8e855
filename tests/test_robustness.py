"""Robustness and failure-injection tests across the stack.

These exercise the paths a clean-room unit test never hits: exotic node
labels flowing end-to-end, corrupt input files, degenerate graphs, and
adversarial configurations.
"""

import io

import pytest

from repro import Graph
from repro.communities import Cover, theta, write_cover
from repro.errors import GraphFormatError, ReproError
from repro.graph import read_edge_list, write_edge_list
from repro.generators import ring_of_cliques

from .conftest import detect, read_cover


class TestExoticLabels:
    """Node labels are arbitrary hashables; nothing may assume ints."""

    @pytest.fixture
    def labelled_graph(self):
        g, truth = ring_of_cliques(3, 5)
        mapping = {node: f"user-{node:02d}@example" for node in g.nodes()}
        relabelled = Graph()
        for u, v in g.edges():
            relabelled.add_edge(mapping[u], mapping[v])
        relabelled_truth = Cover(
            [{mapping[v] for v in c} for c in truth]
        )
        return relabelled, relabelled_truth

    def test_oca_on_string_labels(self, labelled_graph):
        g, truth = labelled_graph
        result = detect("oca", g, seed=0)
        assert theta(truth, result.cover) == pytest.approx(1.0)

    def test_lfk_on_string_labels(self, labelled_graph):
        g, truth = labelled_graph
        assert theta(truth, detect("lfk", g, seed=0).cover) == pytest.approx(1.0)

    def test_cfinder_on_string_labels(self, labelled_graph):
        g, truth = labelled_graph
        assert theta(truth, detect("cfinder", g).cover) == pytest.approx(1.0)

    def test_tuple_labels_survive_detection(self):
        g = Graph(edges=[((0, "a"), (0, "b")), ((0, "b"), (0, "c")),
                         ((0, "a"), (0, "c"))])
        result = detect("oca", g, seed=0)
        assert len(result.cover) == 1

    def test_unicode_labels_round_trip(self, tmp_path):
        g = Graph(edges=[("héllo", "wörld"), ("wörld", "日本語")])
        path = tmp_path / "unicode.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_mixed_int_and_string_labels(self):
        g = Graph(edges=[(1, "one"), ("one", 2), (2, 1)])
        result = detect("oca", g, seed=0)
        assert result.cover.covered_nodes() <= {1, 2, "one"}


class TestCorruptInputs:
    def test_truncated_edge_line(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("1 2\n3\n"))

    def test_binaryish_garbage_line(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("\x00\x01\n"))

    def test_whitespace_only_file_is_empty_graph(self):
        graph = read_edge_list(io.StringIO("   \n\t\n"))
        assert graph.number_of_nodes() == 0

    def test_all_errors_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            read_edge_list(io.StringIO("lonely\n"))


class TestDegenerateGraphs:
    def test_oca_on_single_node(self):
        result = detect("oca", Graph(nodes=["only"]), seed=0, min_community_size=1)
        assert result.cover == Cover([{"only"}])

    def test_oca_on_single_edge(self):
        result = detect("oca", Graph(edges=[(0, 1)]), seed=0)
        assert result.cover == Cover([{0, 1}])

    def test_oca_on_edgeless_nodes(self):
        result = detect("oca", Graph(nodes=range(5)), seed=0, min_community_size=1)
        # Each isolated node is its own singleton local optimum.
        assert result.cover.covered_nodes() == set(range(5))

    def test_lfk_on_single_edge(self):
        result = detect("lfk", Graph(edges=[(0, 1)]), seed=0)
        assert result.cover.covered_nodes() == {0, 1}

    def test_cfinder_on_edgeless_graph(self):
        # No clique of size >= 3 exists, so no k = 3 communities.
        assert len(detect("cfinder", Graph(nodes=range(3))).cover) == 0

    def test_oca_on_many_components(self):
        g = Graph()
        for base in range(0, 30, 3):
            g.add_edge(base, base + 1)
            g.add_edge(base + 1, base + 2)
            g.add_edge(base, base + 2)
        result = detect("oca", g, seed=0)
        assert len(result.cover) == 10
        for community in result.cover:
            assert len(community) == 3


class TestAdversarialConfig:
    def test_zero_seed_fraction_still_works(self):
        g, truth = ring_of_cliques(3, 5)
        result = detect("oca", g, seed=0, seed_fraction=0.0)
        # Starting from bare seeds, growth still finds the cliques.
        assert theta(truth, result.cover) == pytest.approx(1.0)

    def test_tiny_growth_budget_terminates(self):
        g, _ = ring_of_cliques(3, 5)
        result = detect("oca", g, seed=0, max_growth_steps=1)
        assert result.runs > 0  # ran, just with stunted growth

    def test_huge_min_community_size_yields_empty_cover(self):
        g, _ = ring_of_cliques(3, 5)
        result = detect("oca", g, seed=0, min_community_size=1000)
        assert len(result.cover) == 0

    def test_cover_round_trip_with_exotic_members(self, tmp_path):
        cover = Cover([{"a b"}])  # a label with a space cannot round-trip
        path = tmp_path / "cover.txt"
        write_cover(cover, path)
        # Documented limitation: whitespace splits tokens on re-read.
        restored = read_cover(path)
        assert restored != cover
