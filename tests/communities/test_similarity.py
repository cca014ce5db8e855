"""Unit and property tests for rho (Eq. V.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.communities import Community, rho

node_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=15)


def rho_jaccard_form(c, d):
    """The Jaccard form ``|C ∩ D| / |C ∪ D|``, which Eq. V.1 equals."""
    union = len(c | d)
    if union == 0:
        return 1.0
    return len(c & d) / union


def test_identical_sets():
    assert rho({1, 2, 3}, {1, 2, 3}) == 1.0


def test_disjoint_sets():
    assert rho({1, 2}, {3, 4}) == 0.0


def test_half_overlap():
    # |C\D| + |D\C| = 2, |C u D| = 3 -> rho = 1/3
    assert rho({1, 2}, {2, 3}) == pytest.approx(1.0 / 3.0)


def test_subset_relation():
    assert rho({1, 2, 3, 4}, {1, 2}) == pytest.approx(0.5)


def test_empty_sets_are_identical():
    assert rho(set(), set()) == 1.0


def test_empty_vs_nonempty():
    assert rho(set(), {1}) == 0.0


def test_paper_formula_matches_jaccard_example():
    c, d = {1, 2, 3, 4, 5}, {4, 5, 6}
    assert rho(c, d) == pytest.approx(rho_jaccard_form(c, d))


@given(c=node_sets, d=node_sets)
def test_rho_equals_jaccard_everywhere(c, d):
    assert rho(c, d) == pytest.approx(rho_jaccard_form(c, d))


@given(c=node_sets, d=node_sets)
def test_rho_symmetric(c, d):
    assert rho(c, d) == pytest.approx(rho(d, c))


@given(c=node_sets, d=node_sets)
def test_rho_bounds(c, d):
    assert 0.0 <= rho(c, d) <= 1.0


@given(c=node_sets)
def test_rho_reflexive(c):
    assert rho(c, c) == 1.0


@given(c=node_sets, d=node_sets, e=node_sets)
def test_distance_triangle_inequality(c, d, e):
    # 1 - Jaccard is a proper metric (Steinhaus transform).
    assert 1 - rho(c, e) <= (1 - rho(c, d)) + (1 - rho(d, e)) + 1e-12


def test_accepts_frozensets_and_communities():
    assert rho(frozenset({1, 2}), Community([2, 3])) == pytest.approx(1.0 / 3.0)


@given(c=node_sets, d=node_sets)
def test_subset_similarity_is_size_ratio(c, d):
    inner = c & d
    if not c:
        return
    assert rho(c, inner) == pytest.approx(len(inner) / len(c))
