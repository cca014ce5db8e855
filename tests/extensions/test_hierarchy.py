"""Unit tests for the community hierarchy extension."""

import pytest

from repro.communities import Cover
from repro.errors import CommunityError
from repro.extensions import community_graph, hierarchical_oca
from repro.extensions.hierarchy import CommunityRelation
from repro.generators import daisy_graph, ring_of_cliques, two_cliques_bridged
from repro.graph import Graph


class TestCommunityGraph:
    def test_overlap_recorded(self):
        g, cover = two_cliques_bridged(6, 2)
        relations = community_graph(g, cover)
        assert len(relations) == 1
        relation = relations[0]
        assert relation.shared_nodes == 2

    def test_cross_edges_recorded(self):
        g, cover = ring_of_cliques(3, 5)
        relations = community_graph(g, cover)
        # Ring: each adjacent clique pair joined by one bridge edge.
        assert len(relations) == 3
        assert all(r.cross_edges == 1 and r.shared_nodes == 0 for r in relations)

    def test_unrelated_communities_omitted(self):
        g = Graph(edges=[(0, 1), (10, 11)])
        cover = Cover([{0, 1}, {10, 11}])
        assert community_graph(g, cover) == []

    def test_daisy_relations_star_shaped(self):
        instance = daisy_graph(seed=3)
        relations = community_graph(instance.graph, instance.communities)
        core_id = instance.core_ids[0]
        petal_core = [
            r for r in relations if core_id in (r.a, r.b) and r.shared_nodes > 0
        ]
        # Every petal overlaps the core in exactly one node.
        assert len(petal_core) == len(instance.petal_ids)
        assert all(r.shared_nodes == 1 for r in petal_core)


class TestHierarchicalOCA:
    def test_finest_level_finds_cliques(self):
        g, truth = ring_of_cliques(4, 5)
        hierarchy = hierarchical_oca(g, levels=2, seed=0)
        from repro.communities import theta

        assert theta(truth, hierarchy[0].cover) == pytest.approx(1.0)

    def test_levels_coarsen_monotonically(self):
        g, _ = ring_of_cliques(6, 5)
        hierarchy = hierarchical_oca(g, levels=3, seed=0)
        counts = [len(level.cover) for level in hierarchy]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_daisy_tree_agglomerates_toward_flowers(self):
        from repro.generators import daisy_tree

        instance = daisy_tree(flowers=4, seed=11)
        hierarchy = hierarchical_oca(instance.graph, levels=2, seed=11)
        assert len(hierarchy) == 2
        # Level 1 groups petals+cores into far fewer super-communities.
        assert len(hierarchy[1].cover) < len(hierarchy[0].cover) / 2

    def test_coarser_levels_cover_no_fewer_nodes(self):
        g, _ = ring_of_cliques(5, 5)
        hierarchy = hierarchical_oca(g, levels=3, seed=0)
        covered = [len(level.cover.covered_nodes()) for level in hierarchy]
        assert all(a <= b for a, b in zip(covered, covered[1:]))

    def test_single_community_stops_recursion(self):
        from repro.generators import complete_graph

        hierarchy = hierarchical_oca(complete_graph(6), levels=4, seed=0)
        assert len(hierarchy) == 1

    def test_levels_validated(self):
        g, _ = ring_of_cliques(3, 4)
        with pytest.raises(CommunityError):
            hierarchical_oca(g, levels=0)

    def test_level_indices_sequential(self):
        g, _ = ring_of_cliques(6, 5)
        hierarchy = hierarchical_oca(g, levels=3, seed=0)
        assert [level.level for level in hierarchy] == list(range(len(hierarchy)))

    def test_repr(self):
        g, _ = ring_of_cliques(3, 4)
        level = hierarchical_oca(g, levels=1, seed=0)[0]
        assert "HierarchyLevel" in repr(level)


class TestCommunityRelations:
    def test_pairs_ordered_by_cover_index(self):
        g, cover = ring_of_cliques(5, 4)
        relations = community_graph(g, cover)
        assert all(r.a < r.b for r in relations)
        assert [(r.a, r.b) for r in relations] == sorted((r.a, r.b) for r in relations)

    def test_shared_nodes_excluded_from_cross_edges(self):
        # Shared node 2 touches both sides; only the 1-3 edge crosses.
        g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (1, 3)])
        relations = community_graph(g, Cover([{0, 1, 2}, {2, 3, 4}]))
        assert relations == [CommunityRelation(a=0, b=1, shared_nodes=1, cross_edges=1)]

    def test_nodes_missing_from_graph_ignored(self):
        g = Graph(edges=[(0, 1)])
        relations = community_graph(g, Cover([{0, 42}, {1}]))
        assert relations == [CommunityRelation(a=0, b=1, shared_nodes=0, cross_edges=1)]

    def test_empty_cover(self, k5):
        assert community_graph(k5, Cover()) == []
