"""Unit tests for the cover comparison report."""

import pytest

from repro.communities import Cover, comparison_report
from repro.communities.report import match_table


def test_exact_recovery():
    cover = Cover([{1, 2, 3}, {4, 5}])
    matches = match_table(cover, cover)
    assert all(m.verdict == "exact" for m in matches)
    assert all(m.best_rho == 1.0 for m in matches)
    assert all(m.attributed == 1 for m in matches)


def test_missed_community():
    real = Cover([{1, 2, 3}, {7, 8, 9}])
    observed = Cover([{1, 2, 3}])
    matches = match_table(real, observed)
    assert matches[0].verdict == "exact"
    assert matches[1].verdict == "missed"
    assert matches[1].attributed == 0
    assert matches[1].best_rho == 0.0
    assert matches[1].best_observed is None


def test_fragmented_community():
    real = Cover([{1, 2, 3, 4, 5, 6}])
    observed = Cover([{1, 2, 3}, {4, 5, 6}])
    matches = match_table(real, observed)
    assert matches[0].verdict == "fragmented"
    assert matches[0].attributed == 2
    assert matches[0].best_rho == pytest.approx(0.5)


def test_good_vs_blurred_thresholds():
    real = Cover([{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}])
    good = Cover([set(range(1, 10))])      # rho = 0.9
    blurred = Cover([{1, 2, 3, 20, 21, 22, 23}])  # rho = 3/14
    assert match_table(real, good)[0].verdict == "good"
    assert match_table(real, blurred)[0].verdict == "blurred"


def test_empty_observed_cover():
    real = Cover([{1, 2}])
    matches = match_table(real, Cover())
    assert matches[0].verdict == "missed"


def test_report_renders_summary():
    real = Cover([{1, 2, 3}, {4, 5, 6}])
    observed = Cover([{1, 2, 3}, {4, 5}])
    text = comparison_report(real, observed)
    assert "Theta" in text
    assert "exact" in text
    assert "2 real / 2 observed" in text


def test_report_on_empty_observed():
    text = comparison_report(Cover([{1}]), Cover())
    assert "Theta = 0.0000" in text


def test_best_observed_indices_valid():
    real = Cover([{1, 2}, {3, 4}])
    observed = Cover([{3, 4}, {1, 2}])
    matches = match_table(real, observed)
    assert matches[0].best_observed == 1
    assert matches[1].best_observed == 0
