"""Unit tests for daisy flowers and daisy trees."""

import pytest

from repro.errors import GeneratorError
from repro.generators import DaisyParams, daisy_graph, daisy_tree
from repro.graph import connected_components


class TestParams:
    def test_defaults_valid(self):
        DaisyParams()

    def test_p_validated(self):
        with pytest.raises(GeneratorError):
            DaisyParams(p=1)

    def test_n_at_least_p(self):
        with pytest.raises(GeneratorError):
            DaisyParams(p=10, n=5)

    def test_probabilities_validated(self):
        with pytest.raises(GeneratorError):
            DaisyParams(alpha=1.5)
        with pytest.raises(GeneratorError):
            DaisyParams(beta=-0.1)


class TestSingleDaisy:
    @pytest.fixture(scope="class")
    def instance(self):
        return daisy_graph(DaisyParams(), seed=5)

    def test_node_count(self, instance):
        assert instance.graph.number_of_nodes() == 60

    def test_petal_membership_definition(self, instance):
        p = 5
        for petal_id in instance.petal_ids:
            petal = instance.communities[petal_id]
            residues = {v % p for v in petal}
            assert len(residues) == 1
            assert 0 not in residues

    def test_core_membership_definition(self, instance):
        p, q = 5, 12
        core = instance.communities[instance.core_ids[0]]
        assert core == {v for v in range(60) if v % p == 0 or v % q == 0}

    def test_overlap_nodes_exist(self, instance):
        # Nodes with v != 0 mod p and v == 0 mod q sit in petal AND core.
        overlapping = instance.communities.overlapping_nodes()
        expected = {v for v in range(60) if v % 5 != 0 and v % 12 == 0}
        assert expected <= overlapping

    def test_every_petal_overlaps_core(self, instance):
        # gcd(p, q) = 1 guarantees each petal shares a node with the core.
        core = set(instance.communities[instance.core_ids[0]])
        for petal_id in instance.petal_ids:
            assert set(instance.communities[petal_id]) & core

    def test_edges_only_inside_parts(self, instance):
        parts = [set(c) for c in instance.communities]
        for u, v in instance.graph.edges():
            assert any(u in part and v in part for part in parts)

    def test_alpha_one_makes_petals_cliques(self):
        instance = daisy_graph(DaisyParams(alpha=1.0, beta=0.0), seed=1)
        for petal_id in instance.petal_ids:
            petal = list(instance.communities[petal_id])
            for i, u in enumerate(petal):
                for v in petal[i + 1 :]:
                    assert instance.graph.has_edge(u, v)

    def test_beta_zero_core_edgeless(self):
        instance = daisy_graph(DaisyParams(alpha=0.0, beta=0.0), seed=1)
        assert instance.graph.number_of_edges() == 0

    def test_deterministic(self):
        a = daisy_graph(seed=9)
        b = daisy_graph(seed=9)
        assert a.graph == b.graph


class TestDaisyTree:
    def test_flowers_counted(self):
        instance = daisy_tree(flowers=4, seed=2)
        assert instance.flowers == 4
        assert instance.graph.number_of_nodes() == 4 * 60

    def test_single_flower_tree(self):
        instance = daisy_tree(flowers=1, seed=2)
        assert instance.flowers == 1

    def test_flowers_validated(self):
        with pytest.raises(GeneratorError):
            daisy_tree(flowers=0)

    def test_gamma_validated(self):
        with pytest.raises(GeneratorError):
            daisy_tree(flowers=2, gamma=1.5)

    def test_tree_is_connected_when_parts_connected(self):
        # alpha=1, beta=1 make each flower connected; attachment bridges
        # flowers (forced edge if gamma misses).
        params = DaisyParams(alpha=1.0, beta=1.0)
        instance = daisy_tree(flowers=5, gamma=0.01, params=params, seed=3)
        assert len(connected_components(instance.graph)) == 1

    def test_ground_truth_covers_tree(self):
        instance = daisy_tree(flowers=3, seed=4)
        expected = 3 * (4 + 1)  # p - 1 = 4 petals + core per flower
        assert len(instance.communities) == expected

    def test_offsets_disjoint_flowers(self):
        instance = daisy_tree(flowers=3, seed=4)
        assert instance.offsets == [0, 60, 120]

    def test_petal_and_core_ids_partition_communities(self):
        instance = daisy_tree(flowers=3, seed=4)
        all_ids = sorted(instance.petal_ids + instance.core_ids)
        assert all_ids == list(range(len(instance.communities)))

    def test_deterministic(self):
        a = daisy_tree(flowers=3, seed=8)
        b = daisy_tree(flowers=3, seed=8)
        assert a.graph == b.graph
