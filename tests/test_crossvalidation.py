"""Cross-validation against networkx as an independent oracle.

Our substrate and baselines are implemented from scratch; these tests
replay the same computations through networkx (a mature, unrelated
implementation) on random instances and demand exact agreement.  Any
systematic bug in either the graph structure or an algorithm would have
to be replicated in networkx to pass.
"""

import pytest

networkx = pytest.importorskip("networkx")

from repro.baselines import maximal_cliques
from repro.communities import Partition, modularity
from repro.graph import (
    average_clustering,
    bfs_distances,
    connected_components,
    local_clustering,
    to_networkx,
    triangle_count,
)
from repro.generators import erdos_renyi, karate_club

from .conftest import detect


@pytest.fixture(params=[0, 1, 2], ids=lambda s: f"seed{s}")
def random_pair(request):
    """A repro graph and its networkx twin."""
    graph = erdos_renyi(40, 0.15, seed=request.param)
    return graph, to_networkx(graph)


class TestStructuralAgreement:
    def test_triangles(self, random_pair):
        graph, nx_graph = random_pair
        nx_total = sum(networkx.triangles(nx_graph).values()) // 3
        assert triangle_count(graph) == nx_total

    def test_local_clustering(self, random_pair):
        graph, nx_graph = random_pair
        nx_clustering = networkx.clustering(nx_graph)
        for node in graph.nodes():
            assert local_clustering(graph, node) == pytest.approx(
                nx_clustering[node]
            )

    def test_average_clustering(self, random_pair):
        graph, nx_graph = random_pair
        assert average_clustering(graph) == pytest.approx(
            networkx.average_clustering(nx_graph)
        )

    def test_connected_components(self, random_pair):
        graph, nx_graph = random_pair
        ours = {frozenset(c) for c in connected_components(graph)}
        theirs = {frozenset(c) for c in networkx.connected_components(nx_graph)}
        assert ours == theirs

    def test_bfs_distances(self, random_pair):
        graph, nx_graph = random_pair
        source = next(iter(graph.nodes()))
        assert bfs_distances(graph, source) == dict(
            networkx.single_source_shortest_path_length(nx_graph, source)
        )


class TestCliqueAgreement:
    def test_maximal_cliques(self, random_pair):
        graph, nx_graph = random_pair
        ours = set(maximal_cliques(graph))
        theirs = {frozenset(c) for c in networkx.find_cliques(nx_graph)}
        assert ours == theirs

    def test_k_clique_communities(self, random_pair):
        graph, nx_graph = random_pair
        ours = {frozenset(c) for c in detect("cpm", graph, k=3).cover}
        theirs = {
            frozenset(c)
            for c in networkx.community.k_clique_communities(nx_graph, 3)
        }
        assert ours == theirs

    def test_k4_communities_on_karate(self):
        graph, _ = karate_club()
        nx_graph = to_networkx(graph)
        ours = {frozenset(c) for c in detect("cpm", graph, k=4).cover}
        theirs = {
            frozenset(c)
            for c in networkx.community.k_clique_communities(nx_graph, 4)
        }
        assert ours == theirs


class TestModularityAgreement:
    def test_modularity_value_matches(self, random_pair):
        graph, nx_graph = random_pair
        if graph.number_of_edges() == 0:
            return
        partition = detect("modularity_greedy", graph).cover
        blocks = [set(block) for block in partition]
        assert modularity(graph, Partition(blocks)) == pytest.approx(
            networkx.community.modularity(nx_graph, blocks)
        )

    def test_karate_modularity_competitive(self):
        """Our CNM should land within a small gap of networkx's CNM."""
        graph, _ = karate_club()
        nx_graph = to_networkx(graph)
        ours = detect("modularity_greedy", graph).stats["modularity"]
        nx_blocks = networkx.community.greedy_modularity_communities(nx_graph)
        theirs = networkx.community.modularity(nx_graph, nx_blocks)
        assert ours >= theirs - 0.05
