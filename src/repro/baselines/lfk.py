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
space, on the link array of
:class:`~repro.core.state.ArrayCommunityState`.  Step A scores every
node in one dense pass over that array (:func:`_addition_values`) and
takes the ``argmax`` whenever that is provably the pick of the
eps-chain over ascending ids (a node is taken when it beats the best so
far by more than eps); the chain runs only after an earlier near tie
(:func:`_best_addition` states the proof).  Step B scores the member
tail in one vector expression.

Determinism: every scan (the addition pick of step A, the removal
sweep of step B) resolves candidates in ascending id order, which is
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


def _powered(alpha: float, volumes: np.ndarray) -> np.ndarray:
    """``volumes ** alpha`` as :class:`~repro.core.fitness.LFKFitness`
    computes it: untouched at ``alpha == 1`` (``x ** 1.0 == x``), else
    Python's scalar ``**`` per element, because numpy's SIMD float64
    power can differ from libm's ``pow`` in the last bit."""
    if alpha == 1.0:
        return volumes
    return np.array([volume**alpha for volume in volumes.tolist()])


def _lfk_values(
    alpha: float, internal_edges: np.ndarray, volumes: np.ndarray
) -> np.ndarray:
    """Vectorised :meth:`~repro.core.fitness.LFKFitness.value` over int64
    stat arrays: ``2 E / V**alpha``, 0 where ``V == 0``.

    The scalar form's ``k_in + k_out`` is ``2E + (V - 2E)``, and with
    integer stats far below 2**53 every float64 step of it is exact, so
    the sum is exactly ``V``; with :func:`_powered`'s rule every element
    is bit-identical to ``LFKFitness.value`` on the same stats.
    """
    return np.divide(
        2 * internal_edges,
        _powered(alpha, volumes),
        out=np.zeros(len(volumes)),
        where=volumes > 0,
    )


def _addition_values(
    alpha: float,
    links: np.ndarray,
    degrees: np.ndarray,
    internal_edges: int,
    volume: int,
) -> np.ndarray:
    """Step A's fitness after adding each node, over all ``n`` ids.

    At ``alpha == 1`` this is one dense pass over the state's link
    array, ``2 (E + links) / (V + deg)``, in float64 (every operand is
    an integer far below 2**53, so only the division rounds): a
    frontier node's entry is its exact fitness after joining.  Every
    other entry is at most the current fitness ``2E / V`` — exactly,
    so also after correctly rounded division — hence never an
    improvement: a non-member off the frontier scores ``2E / (V + d)``,
    and a member's link entry is its internal degree ``d_in`` minus
    ``2**30``, so ``V (d_in - 2**30) < 0 <= E d`` puts its quotient
    below ``E / V`` (``d_in < 2**29`` by
    :func:`~repro.graph.csr.compile_graph`).  Any other ``alpha`` takes
    the scalar ``**`` per element, so it is evaluated only at the
    frontier (``links > 0``) and every other entry reads 0.  An
    isolated seed (``V = 0``) has no frontier, and every entry reads 0.
    """
    if volume == 0:
        return np.zeros(len(links))
    if alpha == 1.0:
        values = np.add(links, internal_edges, dtype=np.float64)
        values *= 2.0
        return np.divide(values, degrees + volume, out=values)
    values = np.zeros(len(links))
    frontier = (links > 0).nonzero()[0]
    values[frontier] = _lfk_values(
        alpha,
        np.add(links[frontier], internal_edges, dtype=np.int64),
        degrees[frontier] + volume,
    )
    return values


def _best_addition(values: np.ndarray, current: float) -> Optional[int]:
    """The node step A adds, or ``None`` when no addition improves.

    The rule is the eps-chain of ascending ids: starting from
    ``best = current``, a node is taken when ``value > best + eps`` and
    becomes the new ``best``; the last node taken wins, so a later node
    must beat an earlier one by more than eps.  Let ``M`` be the
    maximum, at first index ``p`` (``argmax``).  If ``M <= current +
    eps`` nothing is taken.  Otherwise the chain takes ``p`` unless an
    earlier taken value ``B < M`` has ``B + eps >= M`` (``current`` does
    not block, since ``M > current + eps``), and once ``p`` is taken no
    later value ``v <= M <= M + eps`` can follow.  So when no id before
    ``p`` has ``value + eps >= M`` — the first id of that mask is ``p``
    itself — the chain's pick is exactly ``p``.  The comparisons are the
    same float64 operations the chain performs, so the shortcut is exact
    in floating point, not just in real arithmetic.  Only when an
    earlier near-tie exists does the chain run, over the improvers.
    """
    best = int(values.argmax())
    top = values.item(best)
    if not top > current + _EPS:
        return None
    if int((values + _EPS >= top).argmax()) == best:
        return best
    best_value = current
    for position in (values > current + _EPS).nonzero()[0].tolist():
        value = values.item(position)
        if value > best_value + _EPS:
            best_value = value
            best = position
    return best


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
    Step A scores every node in one pass over the state's link array
    (:func:`_addition_values`) and picks by :func:`_best_addition`:
    ``argmax`` whenever that is provably the eps-chain's pick, else the
    chain over the improvers in ascending id order, so ties go to the
    lowest insertion rank.  Step B removes the first improving member
    of the id-ordered snapshot, recomputing the remaining tail's values
    after each removal.  The seed node itself may be purged — [8]
    allows it.
    """
    fitness = LFKFitness(alpha=alpha)
    state = ArrayCommunityState(compiled, [node])
    links, offset = state.links, state.OFFSET
    if max_steps is None:
        max_steps = 4 * compiled.number_of_nodes() + 16
    steps = 0
    while steps < max_steps:
        # Step A: best addition.
        best_node = _best_addition(
            _addition_values(
                alpha, links, degrees, state.internal_edges, state.volume
            ),
            state.value(fitness),
        )
        if best_node is None:
            break
        state.add(best_node)
        steps += 1
        # Step B: purge nodes whose removal improves fitness.  A
        # community of two or more members holds no isolated node, so
        # removing one leaves ``V - d > 0`` and the division is plain.
        removed = True
        while removed and steps < max_steps and state.size > 1:
            removed = False
            current = state.value(fitness)
            snapshot = state.member_id_array()
            position = 0
            while position < len(snapshot) and state.size > 1:
                tail = snapshot[position:]
                # E - (links + OFFSET) is the fitness's E after the
                # removal; it fits int32 like every link entry.
                values = (
                    (state.internal_edges - offset - links[tail]) * 2.0
                ) / _powered(alpha, state.volume - degrees[tail])
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

