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

from ..errors import AlgorithmError
from ..graph.csr import CompiledGraph
from .fitness import FitnessFunction
from .state import ArrayCommunityState

__all__ = ["GrowthResult", "grow_community"]

#: Strictness margin for "improvement": floating-point noise below this
#: threshold does not count, which keeps the search from ping-ponging on
#: plateaus created by symmetric nodes.
_IMPROVEMENT_EPS = 1e-12

#: The value of a move that does not exist.
_NO_MOVE = float("-inf")


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
    state: ArrayCommunityState, fitness: FitnessFunction
) -> Tuple[Optional[int], float]:
    """The frontier node whose addition gives the highest fitness, by a
    full frontier scan in ascending id order (ties go to the lowest
    insertion rank)."""
    best_node: Optional[int] = None
    best_value = _NO_MOVE
    for node in state.frontier:
        value = state.value_if_added(node, fitness)
        if value > best_value:
            best_value = value
            best_node = node
    return best_node, best_value


def _best_removal(
    state: ArrayCommunityState, fitness: FitnessFunction
) -> Tuple[Optional[int], float]:
    """The member whose removal gives the highest fitness; symmetric to
    :func:`_best_addition`."""
    best_node: Optional[int] = None
    best_value = _NO_MOVE
    if state.size <= 1:
        return best_node, best_value
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
    monotone = bool(getattr(fitness, "monotone_in_internal_edges", False))
    # A fitness monotone in E_in at fixed size is maximised by the
    # frontier node with the most member links and the member with the
    # fewest: the argmax and argmin of the state's one link array (see
    # ArrayCommunityState).  Such a fitness is a(s) + 2 c E_in k(s), so a
    # move is scored from its per-size term tables, read in the order
    # the fitness itself evaluates, which keeps every value's bits.  A
    # step is then two C probes, a few list reads and, for the accepted
    # move, one scatter.
    links = state.links
    argmax, argmin, link_of = links.argmax, links.argmin, links.item
    if monotone:
        a, k = fitness.size_terms(graph.number_of_nodes() + 1)
        scale = 2.0 * fitness.c
    offset = state.OFFSET
    size, e_in = state.size, state.internal_edges
    current = fitness.value(size, e_in, state.volume)
    additions = 0
    removals = 0
    converged = False
    steps = 0
    while steps < max_steps:
        add_value = remove_value = _NO_MOVE
        if monotone:
            add_node = argmax()
            gain = link_of(add_node)
            if gain > 0:
                add_value = a[size + 1] + scale * (e_in + gain) * k[size + 1]
            if allow_removal and size > 1:
                remove_node = argmin()
                remove_value = a[size - 1] + scale * (
                    e_in - link_of(remove_node) - offset
                ) * k[size - 1]
        else:
            add_node, add_value = _best_addition(state, fitness)
            if allow_removal:
                remove_node, remove_value = _best_removal(state, fitness)
        best_value = add_value if add_value >= remove_value else remove_value
        if best_value <= current + _IMPROVEMENT_EPS:
            converged = True
            break
        if add_value >= remove_value:
            state.add(int(add_node))
            additions += 1
        else:
            state.remove(int(remove_node))
            removals += 1
        size, e_in = state.size, state.internal_edges
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
