"""The greedy local search at the heart of OCA (Section IV).

Starting from an initial node set, the search repeatedly applies the
single move — adding a frontier node or removing a member — that yields
the greatest *strict* increase of the fitness.  When no move improves the
fitness, the set is a local maximum of ``L`` on the oriented search space
``Γ↑`` and is reported as a community.

Notes on fidelity to the paper:

* "it greedily adds (removes) the node whose addition (removal) to the
  set implies the greatest increment of the fitness function L" — both
  move types compete in the same step; we do not alternate phases.
* Local maxima are defined by strict improvement: plateau moves are
  rejected, guaranteeing termination (each accepted move strictly
  increases a function that is bounded above on bounded-size subsets,
  and the step budget bounds pathological cases).
* The community never shrinks below one node; the empty set is assigned
  fitness 0 by :func:`~repro.core.fitness.directed_laplacian_value`,
  which the singleton's fitness 1 always beats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .._rng import SeedLike
from ..errors import AlgorithmError
from ..graph.csr import CompiledGraph
from .fitness import FitnessFunction
from .state import ArrayCommunityState

__all__ = ["GrowthResult", "grow_community"]

#: Strictness margin for "improvement": floating-point noise below this
#: threshold does not count, which keeps the search from ping-ponging on
#: plateaus created by symmetric nodes.
_IMPROVEMENT_EPS = 1e-12


@dataclass(frozen=True)
class GrowthResult:
    """Outcome of one greedy local search.

    Attributes
    ----------
    members:
        The local-maximum community.
    fitness_value:
        The fitness of ``members``.
    steps:
        Accepted moves (additions + removals).
    additions / removals:
        Breakdown of the accepted moves.
    converged:
        False when the ``max_steps`` budget stopped the search early.
    """

    members: frozenset
    fitness_value: float
    steps: int
    additions: int
    removals: int
    converged: bool


def _best_addition(
    state: ArrayCommunityState, fitness: FitnessFunction, monotone: bool
) -> Tuple[Optional[int], float]:
    """The frontier node whose addition gives the highest fitness.

    Fitness functions monotone in ``E_in`` use the state's argmax probe;
    anything else falls back to a full frontier scan in ascending id
    order, so ties go to the lowest insertion rank either way.
    """
    if monotone:
        node = state.best_frontier_node()
        if node is None:
            return None, float("-inf")
        return node, state.value_if_added(node, fitness)
    best_node: Optional[int] = None
    best_value = float("-inf")
    for node in state.frontier:
        value = state.value_if_added(node, fitness)
        if value > best_value:
            best_value = value
            best_node = node
    return best_node, best_value


def _best_removal(
    state: ArrayCommunityState, fitness: FitnessFunction, monotone: bool
) -> Tuple[Optional[int], float]:
    """The member whose removal gives the highest fitness.

    Symmetric to :func:`_best_addition`: for monotone fitness the optimal
    removal is the member with the fewest internal links.
    """
    best_value = float("-inf")
    if state.size <= 1:
        return None, best_value
    if monotone:
        node = state.weakest_member()
        if node is None:
            return None, best_value
        return node, state.value_if_removed(node, fitness)
    best_node: Optional[int] = None
    for node in state.members:
        value = state.value_if_removed(node, fitness)
        if value > best_value:
            best_value = value
            best_node = node
    return best_node, best_value


def grow_community(
    graph: CompiledGraph,
    initial_members: Iterable[int],
    fitness: FitnessFunction,
    max_steps: Optional[int] = None,
    allow_removal: bool = True,
    seed: SeedLike = None,
) -> GrowthResult:
    """Run the greedy add/remove search to a local fitness maximum.

    Parameters
    ----------
    graph:
        Host graph, compiled; the search runs on the vectorised
        :class:`~repro.core.state.ArrayCommunityState`.
    initial_members:
        Non-empty starting set of dense ids (the "random neighbourhood
        of the seed").
    fitness:
        Objective; usually :class:`~repro.core.fitness.DirectedLaplacianFitness`.
    max_steps:
        Safety budget on accepted moves; defaults to ``4 * n + 16``, far
        above what the Laplacian fitness ever needs in practice.
    allow_removal:
        Disable to get a pure growth process (used by one ablation).
    seed:
        Unused by the deterministic argmax, but accepted so call sites can
        treat all stochastic components uniformly; reserved for future
        stochastic tie-breaking.

    Returns
    -------
    GrowthResult
        The community together with search statistics.
    """
    members = set(initial_members)
    if not members:
        raise AlgorithmError("greedy growth needs a non-empty initial set")
    state = ArrayCommunityState(graph, members)
    if max_steps is None:
        max_steps = 4 * graph.number_of_nodes() + 16
    current = state.value(fitness)
    monotone = bool(getattr(fitness, "monotone_in_internal_edges", False))
    additions = 0
    removals = 0
    converged = False
    steps = 0
    while steps < max_steps:
        add_node, add_value = _best_addition(state, fitness, monotone)
        if allow_removal:
            remove_node, remove_value = _best_removal(state, fitness, monotone)
        else:
            remove_node, remove_value = None, float("-inf")
        best_value = max(add_value, remove_value)
        if best_value <= current + _IMPROVEMENT_EPS:
            converged = True
            break
        if add_value >= remove_value:
            state.add(add_node)
            additions += 1
        else:
            state.remove(remove_node)
            removals += 1
        current = best_value
        steps += 1
    return GrowthResult(
        members=frozenset(state.members),
        fitness_value=current,
        steps=steps,
        additions=additions,
        removals=removals,
        converged=converged,
    )
