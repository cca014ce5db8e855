"""Unit and property tests for Theta (Eq. V.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.communities import Cover, theta
from repro.communities.suitability import best_match_assignment
from repro.errors import CommunityError

covers = st.lists(
    st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=8),
    min_size=1,
    max_size=6,
).map(Cover)


def test_identical_structures_score_one():
    cover = Cover([{1, 2, 3}, {4, 5}])
    assert theta(cover, cover) == pytest.approx(1.0)


def test_disjoint_structures_score_zero():
    real = Cover([{1, 2}, {3, 4}])
    observed = Cover([{10, 11}, {12}])
    assert theta(real, observed) == pytest.approx(0.0)


def test_missing_community_penalised():
    real = Cover([{1, 2, 3}, {4, 5, 6}])
    observed = Cover([{1, 2, 3}])
    # Community 2 unfound: contributes 0; average over l = 2 -> 0.5.
    assert theta(real, observed) == pytest.approx(0.5)


def test_fragmented_community_averages_fragments():
    real = Cover([{1, 2, 3, 4}])
    observed = Cover([{1, 2}, {3, 4}])
    # Both fragments prefer the single real community; each rho = 0.5.
    assert theta(real, observed) == pytest.approx(0.5)


def test_extra_noise_community_hurts():
    real = Cover([{1, 2, 3}])
    exact = Cover([{1, 2, 3}])
    noisy = Cover([{1, 2, 3}, {10, 11}])
    assert theta(real, noisy) < theta(real, exact)


def test_overlapping_structures_supported():
    real = Cover([{1, 2, 3}, {3, 4, 5}])
    assert theta(real, real) == pytest.approx(1.0)


def test_empty_real_structure_raises():
    with pytest.raises(CommunityError):
        theta(Cover(), Cover([{1}]))


def test_empty_observed_scores_zero():
    assert theta(Cover([{1, 2}]), Cover()) == 0.0


def test_assignment_attributes_every_observed_exactly_once():
    real = Cover([{1, 2, 3}, {4, 5, 6}])
    observed = Cover([{1, 2}, {4, 5}, {1, 4}])
    assignment = best_match_assignment(real, observed)
    attributed = sorted(j for js in assignment.values() for j in js)
    assert attributed == [0, 1, 2]


def test_assignment_tie_breaks_to_first():
    real = Cover([{1, 2}, {3, 4}])
    observed = Cover([{1, 3}])  # rho = 1/3 against both
    assignment = best_match_assignment(real, observed)
    assert assignment[0] == [0]
    assert assignment[1] == []


@given(real=covers, observed=covers)
def test_theta_bounds(real, observed):
    assert 0.0 <= theta(real, observed) <= 1.0


@given(cover=covers)
def test_theta_self_comparison_is_one(cover):
    assert theta(cover, cover) == pytest.approx(1.0)
