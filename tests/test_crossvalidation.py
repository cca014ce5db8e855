"""Cross-validation against networkx as an independent oracle.

Our substrate and baselines are implemented from scratch; these tests
replay the same computations through networkx (a mature, unrelated
implementation) on random instances and demand exact agreement.  Any
systematic bug in either the graph structure or an algorithm would have
to be replicated in networkx to pass.
"""

import io

import numpy as np
import pytest

networkx = pytest.importorskip("networkx")

from repro.baselines import maximal_cliques
from repro.communities import Partition
from repro.graph import (
    adjacency_with_index,
    average_degree,
    compile_graph,
    connected_components,
    read_edge_list,
    summarize,
    write_edge_list,
)
from repro.graph.statistics import density
from repro.generators import erdos_renyi, karate_club

from .conftest import detect, modularity, to_networkx


@pytest.fixture(params=[0, 1, 2], ids=lambda s: f"seed{s}")
def random_pair(request):
    """A repro graph and its networkx twin."""
    graph = erdos_renyi(40, 0.15, seed=request.param)
    return graph, to_networkx(graph)


class TestStructuralAgreement:
    def test_connected_components(self, random_pair):
        graph, nx_graph = random_pair
        ours = {frozenset(c) for c in connected_components(graph)}
        theirs = {frozenset(c) for c in networkx.connected_components(nx_graph)}
        assert ours == theirs

    def test_component_count_and_largest(self, random_pair):
        graph, nx_graph = random_pair
        summary = summarize(graph)
        assert summary.components == networkx.number_connected_components(nx_graph)
        assert summary.largest_component == max(
            len(c) for c in networkx.connected_components(nx_graph)
        )

    def test_density(self, random_pair):
        graph, nx_graph = random_pair
        assert density(graph) == pytest.approx(networkx.density(nx_graph))

    def test_average_degree(self, random_pair):
        graph, nx_graph = random_pair
        degrees = [d for _, d in nx_graph.degree()]
        assert average_degree(graph) == pytest.approx(sum(degrees) / len(degrees))

    def test_degree_extremes(self, random_pair):
        graph, nx_graph = random_pair
        summary = summarize(graph)
        degrees = [d for _, d in nx_graph.degree()]
        assert (summary.min_degree, summary.max_degree) == (min(degrees), max(degrees))
        assert (summary.nodes, summary.edges) == (
            nx_graph.number_of_nodes(),
            nx_graph.number_of_edges(),
        )

    def test_adjacency_matrix(self, random_pair):
        graph, nx_graph = random_pair
        matrix, index = adjacency_with_index(graph)
        order = sorted(index, key=index.get)
        theirs = networkx.to_scipy_sparse_array(nx_graph, nodelist=order)
        assert np.array_equal(matrix.toarray(), theirs.toarray())

    def test_compiled_neighbours(self, random_pair):
        graph, nx_graph = random_pair
        compiled = compile_graph(graph)
        for node in nx_graph.nodes():
            ours = compiled.labels_of(compiled.neighbors(compiled.id_of(node)))
            assert set(ours) == set(nx_graph.neighbors(node))
            assert compiled.degree(compiled.id_of(node)) == nx_graph.degree(node)

    def test_edge_list_read_by_networkx(self, random_pair):
        graph, nx_graph = random_pair
        buffer = io.StringIO()
        write_edge_list(graph, buffer)
        lines = buffer.getvalue().splitlines()
        theirs = networkx.parse_edgelist(lines, nodetype=int)
        assert {frozenset(e) for e in theirs.edges()} == {
            frozenset(e) for e in nx_graph.edges()
        }

    def test_edge_list_written_by_networkx(self, random_pair):
        graph, nx_graph = random_pair
        text = "\n".join(networkx.generate_edgelist(nx_graph, data=False))
        ours = read_edge_list(io.StringIO(text))
        assert {frozenset(e) for e in ours.edges()} == {
            frozenset(e) for e in graph.edges()
        }


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
