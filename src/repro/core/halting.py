"""Halting criteria for OCA's outer loop.

The paper: "This procedure is then repeated until a halting criterion is
met. ... the discussion of the halting criterion is outside the scope of
this paper."  We therefore expose the criterion as a strategy object fed
with live run statistics, and ship three useful instances:

``MaxRunsHalting``
    A fixed budget of local searches.
``CoverageHalting``
    Stop once a target fraction of nodes is covered (with a run-budget
    backstop) — mirrors "in some cases we may need to include all nodes".
``StagnationHalting``
    Stop after N consecutive runs that discovered no new community —
    the natural criterion when only "the most relevant nodes" should end
    up covered and total coverage is not a goal.

Each stops on run counts alone, never on the clock, so a cover stays a
pure function of the graph, the seed, ``batch_size`` and the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..errors import ConfigurationError

__all__ = [
    "RunStatistics",
    "HaltingCriterion",
    "MaxRunsHalting",
    "CoverageHalting",
    "StagnationHalting",
]


@dataclass
class RunStatistics:
    """Live statistics the OCA outer loop feeds to its halting criterion.

    Attributes
    ----------
    runs:
        Local searches completed so far.
    communities:
        Distinct communities discovered so far.
    covered_fraction:
        Fraction of graph nodes in at least one community.
    consecutive_duplicates:
        How many runs in a row ended in an already-known community.
    """

    runs: int = 0
    communities: int = 0
    covered_fraction: float = 0.0
    consecutive_duplicates: int = 0


class HaltingCriterion(Protocol):
    """Protocol for halting decisions on the OCA outer loop."""

    def should_stop(self, stats: RunStatistics) -> bool:
        """Whether the outer loop should stop before the next run."""
        ...


@dataclass(frozen=True)
class MaxRunsHalting:
    """Stop after a fixed number of local searches."""

    max_runs: int

    def __post_init__(self) -> None:
        if self.max_runs <= 0:
            raise ConfigurationError(f"max_runs must be positive, got {self.max_runs}")

    def should_stop(self, stats: RunStatistics) -> bool:
        return stats.runs >= self.max_runs


@dataclass(frozen=True)
class CoverageHalting:
    """Stop when enough of the graph is covered (or the backstop trips)."""

    target_fraction: float = 1.0
    max_runs: int = 1_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fraction <= 1.0:
            raise ConfigurationError(
                f"target_fraction must lie in (0, 1], got {self.target_fraction}"
            )
        if self.max_runs <= 0:
            raise ConfigurationError(f"max_runs must be positive, got {self.max_runs}")

    def should_stop(self, stats: RunStatistics) -> bool:
        return (
            stats.covered_fraction >= self.target_fraction
            or stats.runs >= self.max_runs
        )


@dataclass(frozen=True)
class StagnationHalting:
    """Stop after ``patience`` consecutive runs found nothing new."""

    patience: int = 20
    max_runs: int = 1_000_000

    def __post_init__(self) -> None:
        if self.patience <= 0:
            raise ConfigurationError(f"patience must be positive, got {self.patience}")
        if self.max_runs <= 0:
            raise ConfigurationError(f"max_runs must be positive, got {self.max_runs}")

    def should_stop(self, stats: RunStatistics) -> bool:
        return (
            stats.consecutive_duplicates >= self.patience
            or stats.runs >= self.max_runs
        )
