"""Fitness functions over node subsets.

The definitive OCA fitness is the **directed Laplacian** of ``phi`` on the
oriented search space ``Γ↑`` (Section III of the paper)::

    L(S) = s - sqrt(s(s-1)) + 2 c E_in(S) * (1 - (s-2)/sqrt(s(s-1)))

with ``s = |S|``.  Unlike ``phi`` — which is strictly monotone in the
subset order, so its only local maximum is the whole graph — ``L``
penalises size and rewards internal edges, producing non-trivial local
maxima that the paper identifies with communities.

All fitness functions share one signature, ``value(size, internal_edges,
volume)``: size and ``E_in(S)`` suffice for the paper's functions, and the
subset's total degree ``volume`` additionally covers the LFK fitness so
the ablation benchmark can swap functions freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from ..errors import ConfigurationError

__all__ = [
    "FitnessFunction",
    "DirectedLaplacianFitness",
    "PhiFitness",
    "LFKFitness",
    "directed_laplacian_value",
    "phi_value",
]


def phi_value(size: int, internal_edges: int, c: float) -> float:
    """``phi(S) = s + 2 c E_in(S)`` (Section II)."""
    return size + 2.0 * c * internal_edges


def directed_laplacian_value(size: int, internal_edges: int, c: float) -> float:
    """``L(S)`` per Section III.

    Conventions at the boundary of the formula's domain:

    * ``s = 0`` (empty set): value 0 — worse than any single node, so the
      greedy search never empties a community.
    * ``s = 1``: the ``sqrt(s(s-1))`` terms vanish and ``E_in = 0``, giving
      ``L = 1``, matching the paper's derivation for singleton subsets.
    """
    if size < 0:
        raise ValueError(f"subset size cannot be negative, got {size}")
    if size == 0:
        return 0.0
    if size == 1:
        return 1.0
    root = math.sqrt(size * (size - 1))
    return size - root + 2.0 * c * internal_edges * (1.0 - (size - 2) / root)


class FitnessFunction(Protocol):
    """Anything scoring a subset from ``(size, internal_edges, volume)``.

    ``volume`` is the sum of (full-graph) degrees over the subset; the
    external degree is then ``volume - 2 * internal_edges``.

    Implementations may set ``monotone_in_internal_edges = True`` when,
    for fixed subset size, the value is non-decreasing in ``E_in`` and
    independent of ``volume``.  The greedy search exploits this: the best
    addition is then the frontier node with the most member links and
    the best removal the member with the fewest, an ``argmax`` and an
    ``argmin`` over the community state's link array instead of full
    frontier and member scans.  The directed Laplacian and ``phi``
    qualify; the LFK fitness (which reads the candidate's degree through
    ``volume``) does not.
    """

    monotone_in_internal_edges: bool

    def value(self, size: int, internal_edges: int, volume: int) -> float:
        """The fitness of a subset with the given aggregate statistics."""
        ...


@dataclass(frozen=True)
class DirectedLaplacianFitness:
    """The paper's fitness ``L`` with a fixed inner-product value ``c``.

    Monotone in ``E_in`` at fixed size: the ``E_in`` coefficient
    ``1 - (s-2)/sqrt(s(s-1))`` is positive for every ``s >= 2`` (square
    both sides: ``(s-2)^2 < s(s-1)`` iff ``3s > 4``), so the greedy
    search's argmax/argmin fast path is exact.
    """

    c: float
    monotone_in_internal_edges: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.c < 1.0:
            raise ConfigurationError(f"c must lie in [0, 1), got {self.c}")

    def value(self, size: int, internal_edges: int, volume: int) -> float:
        return directed_laplacian_value(size, internal_edges, self.c)


@dataclass(frozen=True)
class PhiFitness:
    """The naive fitness ``phi``; kept for the monotonicity ablation.

    The paper proves this function has a single maximum (the whole
    graph); the ablation benchmark demonstrates the degeneracy
    empirically.
    """

    c: float
    monotone_in_internal_edges: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.c < 1.0:
            raise ConfigurationError(f"c must lie in [0, 1), got {self.c}")

    def value(self, size: int, internal_edges: int, volume: int) -> float:
        return phi_value(size, internal_edges, self.c)


@dataclass(frozen=True)
class LFKFitness:
    """The LFK fitness ``k_in / (k_in + k_out)^alpha`` (reference [8]).

    ``k_in = 2 E_in(S)`` is twice the internal edge count and ``k_out``
    the number of boundary edge endpoints.  Exposed here so OCA's greedy
    machinery can run with the baseline's objective in ablations; the
    faithful LFK *algorithm* lives in :mod:`repro.baselines.lfk`.
    """

    alpha: float = 1.0
    monotone_in_internal_edges: bool = False

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")

    def value(self, size: int, internal_edges: int, volume: int) -> float:
        k_in = 2.0 * internal_edges
        k_out = float(volume - 2 * internal_edges)
        total = k_in + k_out
        if total <= 0.0:
            return 0.0
        return k_in / total**self.alpha
