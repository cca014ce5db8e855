"""Unit tests for the overlap statistics of a cover."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.communities import Cover, Partition, overlap_statistics


def test_overlap_statistics():
    cover = Cover([{1, 2, 3}, {3, 4}])
    stats = overlap_statistics(cover)
    assert stats["communities"] == 2.0
    assert stats["covered_nodes"] == 4.0
    assert stats["overlapping_nodes"] == 1.0
    assert stats["max_memberships"] == 2.0
    assert stats["mean_memberships"] == pytest.approx(5 / 4)


def test_overlap_statistics_empty():
    stats = overlap_statistics(Cover())
    assert stats["covered_nodes"] == 0.0
    assert stats["mean_memberships"] == 0.0


def test_overlap_statistics_of_partition():
    stats = overlap_statistics(Partition([{1, 2}, {3, 4, 5}]))
    assert stats["overlapping_nodes"] == 0.0
    assert stats["max_memberships"] == 1.0
    assert stats["mean_memberships"] == 1.0


def test_node_in_three_communities():
    stats = overlap_statistics(Cover([{0, 1}, {0, 2}, {0, 3}]))
    assert stats["max_memberships"] == 3.0
    assert stats["overlapping_nodes"] == 1.0
    assert stats["mean_memberships"] == pytest.approx(6 / 4)


@given(
    communities=st.lists(
        st.sets(st.integers(0, 20), min_size=1, max_size=8), min_size=1, max_size=6
    )
)
def test_overlap_statistics_invariants(communities):
    cover = Cover(communities)
    stats = overlap_statistics(cover)
    assert stats["communities"] == len(cover)
    assert stats["covered_nodes"] == len(set().union(*communities))
    assert stats["overlapping_nodes"] <= stats["covered_nodes"]
    assert 1.0 <= stats["mean_memberships"] <= stats["max_memberships"] <= len(cover)
