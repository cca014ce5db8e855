"""LFK: local fitness optimisation (Lancichinetti–Fortunato–Kertész, [8]).

The paper's strongest baseline.  LFK grows the *natural community* of a
node by maximising the fitness

    f(S) = k_in(S) / (k_in(S) + k_out(S))^alpha

where ``k_in`` is twice the internal edge count, ``k_out`` the number of
boundary half-edges, and ``alpha`` a resolution parameter (the paper uses
"the standard parameter alpha = 1").

Natural-community procedure (following [8] §"The algorithm"):

A. among the frontier nodes, add the one whose inclusion yields the
   largest fitness, *if* that exceeds the current fitness;
B. after each addition, repeatedly remove any node whose exclusion
   increases the fitness (nodes with "negative fitness contribution"),
   rechecking from scratch after every removal;
C. stop when step A cannot improve the fitness.

The cover is produced by the covering loop of [8]: pick an uncovered
node, compute its natural community, mark its members covered, repeat
until no node is uncovered.  Overlap arises because a natural community
freely includes already-covered nodes.

The algorithm runs on a :class:`~repro.graph.CompiledGraph` in dense-id
space, with both scans vectorised over the community's arrays.

Determinism: every scan (the addition argmax of step A, the removal
sweep of step B) enumerates candidates in ascending id order, which is
**insertion-rank order**, so the trajectory is a pure function of the
graph's construction order and the seed — independent of Python's set
iteration order.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from .._rng import SeedLike, as_random
from ..core.fitness import LFKFitness
from ..core.state import ArrayCommunityState
from ..errors import ConfigurationError
from ..graph.csr import CompiledGraph

#: The ``lfk`` detector is the public entry point.
__all__: List[str] = []

_EPS = 1e-12


def _lfk_values(
    alpha: float, internal_edges: np.ndarray, volumes: np.ndarray
) -> np.ndarray:
    """Vectorised :meth:`~repro.core.fitness.LFKFitness.value` over int64
    stat arrays: ``2 E / V**alpha``, 0 where ``V == 0``.

    The scalar form's ``k_in + k_out`` is ``2E + (V - 2E)``, and with
    integer stats far below 2**53 every float64 step of it is exact, so
    the sum is exactly ``V``.  ``x ** 1.0 == x``, so the power is skipped
    at the paper's ``alpha = 1``; any other ``alpha`` takes the scalar
    ``**`` per element, because numpy's SIMD float64 power can differ
    from libm's ``pow`` in the last bit.  Every element is therefore
    bit-identical to ``LFKFitness.value`` on the same stats.
    """
    positive = volumes > 0
    if alpha == 1.0:
        denominator = volumes
    else:
        denominator = np.array([volume**alpha for volume in volumes.tolist()])
    return np.divide(
        2 * internal_edges,
        denominator,
        out=np.zeros(len(volumes)),
        where=positive,
    )


def _natural_community_ids(
    compiled: CompiledGraph,
    degrees: np.ndarray,
    node: int,
    alpha: float,
    max_steps: Optional[int],
) -> np.ndarray:
    """The natural community of ``node``, as ascending dense ids.

    ``degrees`` is ``compiled.degrees`` as int64, cast once per cover.

    ``max_steps`` bounds the total accepted moves (default ``4n + 16``).
    Step A computes every frontier candidate's fitness in one vector
    expression, prefilters the improvers (any candidate the eps-chain
    could accept satisfies ``value > current + eps``, since its running
    best only rises), then runs the eps-chain over that short survivor
    list in ascending id order, so ties go to the lowest insertion
    rank.  Step B removes the first improving member of the id-ordered
    snapshot, recomputing the remaining tail's values after each
    removal.  The seed node itself may be purged — [8] allows it.
    """
    fitness = LFKFitness(alpha=alpha)
    state = ArrayCommunityState(compiled, [node])
    if max_steps is None:
        max_steps = 4 * compiled.number_of_nodes() + 16
    steps = 0
    while steps < max_steps:
        # Step A: best addition (eps-chain over the vectorised values).
        current = state.value(fitness)
        frontier = state.frontier_id_array()
        best_node = None
        if frontier.size:
            gains = state.frontier_gain_array(frontier).astype(np.int64)
            values = _lfk_values(
                alpha,
                state.internal_edges + gains,
                state.volume + degrees[frontier],
            )
            best_value = current
            for position in (values > current + _EPS).nonzero()[0]:
                value = float(values[position])
                if value > best_value + _EPS:
                    best_value = value
                    best_node = int(frontier[position])
        if best_node is None:
            break
        state.add(best_node)
        steps += 1
        # Step B: purge nodes whose removal improves fitness.
        removed = True
        while removed and steps < max_steps and state.size > 1:
            removed = False
            current = state.value(fitness)
            snapshot = state.member_id_array()
            position = 0
            while position < len(snapshot) and state.size > 1:
                tail = snapshot[position:]
                losses = state.internal_degree_array(tail).astype(np.int64)
                values = _lfk_values(
                    alpha,
                    state.internal_edges - losses,
                    state.volume - degrees[tail],
                )
                better = (values > current + _EPS).nonzero()[0]
                if better.size == 0:
                    break
                index = int(better[0])
                state.remove(int(tail[index]))
                steps += 1
                current = float(values[index])
                removed = True
                position += index + 1
    return state.member_id_array()


def _lfk_compiled(
    compiled: CompiledGraph,
    alpha: float = 1.0,
    seed: SeedLike = None,
    max_steps_per_community: Optional[int] = None,
) -> Tuple[List[Set[int]], int]:
    """The LFK covering loop in dense-id space.

    Returns ``(communities-as-id-sets, natural-community count)``.
    Seeds are drawn uniformly among uncovered nodes (the ids shuffled
    once with ``seed``), as in [8].  Every node ends up covered.
    """
    if alpha <= 0.0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    rng = as_random(seed)
    n = compiled.number_of_nodes()
    order = list(range(n))
    rng.shuffle(order)
    degrees = compiled.degrees.astype(np.int64)
    covered = np.zeros(n, dtype=bool)
    communities: List[Set[int]] = []
    computed = 0
    for node in order:
        if covered[node]:
            continue
        members = _natural_community_ids(
            compiled, degrees, node, alpha, max_steps_per_community
        )
        computed += 1
        community = set(int(member) for member in members)
        # The growth may purge its own seed; anchor it anyway so the
        # covering loop terminates with full coverage.
        community.add(node)
        communities.append(community)
        covered[members] = True
        covered[node] = True
    return communities, computed

