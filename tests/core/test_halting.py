"""Unit tests for halting criteria."""

import pytest

from repro.core import (
    CoverageHalting,
    MaxRunsHalting,
    RunStatistics,
    StagnationHalting,
)
from repro.errors import ConfigurationError


def stats(runs=0, communities=0, covered=0.0, duplicates=0):
    return RunStatistics(
        runs=runs,
        communities=communities,
        covered_fraction=covered,
        consecutive_duplicates=duplicates,
    )


class TestMaxRuns:
    def test_stops_at_budget(self):
        criterion = MaxRunsHalting(max_runs=10)
        assert not criterion.should_stop(stats(runs=9))
        assert criterion.should_stop(stats(runs=10))

    def test_validates(self):
        with pytest.raises(ConfigurationError):
            MaxRunsHalting(max_runs=0)


class TestCoverage:
    def test_stops_at_target(self):
        criterion = CoverageHalting(target_fraction=0.9)
        assert not criterion.should_stop(stats(covered=0.89))
        assert criterion.should_stop(stats(covered=0.9))

    def test_backstop_max_runs(self):
        criterion = CoverageHalting(target_fraction=1.0, max_runs=5)
        assert criterion.should_stop(stats(runs=5, covered=0.1))

    def test_validates_fraction(self):
        with pytest.raises(ConfigurationError):
            CoverageHalting(target_fraction=0.0)
        with pytest.raises(ConfigurationError):
            CoverageHalting(target_fraction=1.5)

    def test_validates_max_runs(self):
        with pytest.raises(ConfigurationError):
            CoverageHalting(max_runs=-1)


class TestStagnation:
    def test_stops_on_patience(self):
        criterion = StagnationHalting(patience=3)
        assert not criterion.should_stop(stats(duplicates=2))
        assert criterion.should_stop(stats(duplicates=3))

    def test_backstop_max_runs(self):
        criterion = StagnationHalting(patience=100, max_runs=7)
        assert criterion.should_stop(stats(runs=7))

    def test_validates(self):
        with pytest.raises(ConfigurationError):
            StagnationHalting(patience=0)
        with pytest.raises(ConfigurationError):
            StagnationHalting(max_runs=0)
