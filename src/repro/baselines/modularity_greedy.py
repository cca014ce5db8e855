"""Newman's fast greedy modularity agglomeration (reference [11]).

The paper cites this as the archetypal *non-overlapping* method the
overlapping literature moves beyond.  We include it as the disjoint
reference point: EXPERIMENTS.md uses it to illustrate that a partitioning
algorithm structurally cannot express the daisy benchmark's ground truth,
which is the motivation of the whole paper.

Implementation: the classic CNM agglomeration.  Every node starts as its
own community; the merge joining the pair of *connected* communities with
the largest modularity gain

    dQ(i, j) = 2 (e_ij - a_i a_j)

is applied repeatedly until no merge has positive gain.  ``e_ij`` is the
fraction of edges between communities ``i`` and ``j``; ``a_i`` the
fraction of edge endpoints in ``i``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, Set, Tuple

from ..communities import Partition
from ..errors import AlgorithmError
from ..graph.csr import CompiledGraph

__all__ = ["GreedyModularityResult", "greedy_modularity"]


@dataclass
class GreedyModularityResult:
    """Outcome of the greedy agglomeration.

    Attributes
    ----------
    partition:
        The final disjoint partition, in dense ids.
    modularity:
        Modularity ``Q`` of that partition.
    merges:
        Number of merges performed.
    elapsed_seconds:
        Wall-clock duration.
    """

    partition: Partition
    modularity: float
    merges: int
    elapsed_seconds: float


def _ranked_edges(graph: CompiledGraph) -> Iterator[Tuple[int, int]]:
    """Every edge as an id pair ``(i, j)``, ``i < j``, in the canonical
    scan order: ``i`` ascending, then ``j`` ascending (the sorted CSR
    row order), which fixes the agglomeration's tie-breaks."""
    indptr, indices = graph.indptr, graph.indices
    for i in range(graph.number_of_nodes()):
        for j in indices[indptr[i] : indptr[i + 1]].tolist():
            if j > i:
                yield i, j


def greedy_modularity(graph: CompiledGraph) -> GreedyModularityResult:
    """Run CNM greedy modularity maximisation on a compiled graph.

    Agglomerates in dense-id (insertion-rank) space with a canonical
    edge-scan order, so the partition is a pure function of the graph's
    construction order.

    Raises :class:`AlgorithmError` on edgeless graphs, where modularity
    is undefined.
    """
    m = graph.number_of_edges()
    if m == 0:
        raise AlgorithmError("greedy modularity needs at least one edge")
    start = time.perf_counter()

    # Community ids start as node ids; member sets hold ids.
    n = graph.number_of_nodes()

    # Community id -> member rank set; start singleton.
    members: Dict[int, Set[int]] = {i: {i} for i in range(n)}

    # e[i][j]: fraction of edges between communities i and j (i != j);
    # a[i]: fraction of endpoint mass in community i.
    e: Dict[int, Dict[int, float]] = {i: {} for i in members}
    a: Dict[int, float] = {i: 0.0 for i in members}
    for i, j in _ranked_edges(graph):
        e[i][j] = e[i].get(j, 0.0) + 1.0 / (2.0 * m)
        e[j][i] = e[j].get(i, 0.0) + 1.0 / (2.0 * m)
    for i in range(n):
        a[i] += graph.degree(i) / (2.0 * m)

    def q_current() -> float:
        total = 0.0
        for i in members:
            internal = e[i].get(i, 0.0)
            total += internal - a[i] * a[i]
        return total

    # Self-fractions e_ii start at 0 (no self loops in simple graphs).
    for i in e:
        e[i].setdefault(i, 0.0)

    merges = 0
    while len(members) > 1:
        best_gain = 0.0
        best_pair: Tuple[int, int] = (-1, -1)
        for i, row in e.items():
            for j, fraction in row.items():
                if j <= i:
                    continue
                gain = 2.0 * (fraction - a[i] * a[j])
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (i, j)
        if best_pair == (-1, -1):
            break
        i, j = best_pair
        # Merge j into i.
        members[i] |= members.pop(j)
        row_j = e.pop(j)
        for k, fraction in row_j.items():
            if k == j:
                e[i][i] = e[i].get(i, 0.0) + fraction
                continue
            if k == i:
                # Edges between i and j become internal to i.  Both stored
                # copies (e[j][i] here and the e[i][j] popped below) must
                # land in e_ii, hence the factor 2 on this one visit.
                e[i][i] = e[i].get(i, 0.0) + 2.0 * fraction
                continue
            e[i][k] = e[i].get(k, 0.0) + fraction
            e[k][i] = e[k].get(i, 0.0) + fraction
            e[k].pop(j, None)
        e[i].pop(j, None)
        a[i] += a.pop(j)
        merges += 1

    partition = Partition(members.values())
    return GreedyModularityResult(
        partition=partition,
        modularity=q_current(),
        merges=merges,
        elapsed_seconds=time.perf_counter() - start,
    )
