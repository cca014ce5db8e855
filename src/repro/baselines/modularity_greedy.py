"""Newman's fast greedy modularity agglomeration (reference [11]).

The paper cites this as the archetypal *non-overlapping* method the
overlapping literature moves beyond.  We include it as the disjoint
reference point: a partitioning algorithm structurally cannot express
the daisy benchmark's overlapping ground truth, which is the motivation
of the whole paper (``tests/test_integration.py`` checks that OCA beats
it on an overlapping instance).

Implementation: the CNM agglomeration (Clauset, Newman and Moore, Phys.
Rev. E 70, 066111, 2004).  Every node starts as its own community; the
merge joining the pair of *connected* communities with the largest
modularity gain is applied repeatedly until no merge has positive gain.
The gain is kept as the exact integer

    key(i, j) = 2m e_ij - D_i D_j        (= 2m^2 dQ)

where ``e_ij`` counts the edges between communities ``i`` and ``j`` and
``D_i`` is the degree sum of ``i``.  A tie goes to the lowest ``(i, j)``
and the lower id survives, so the partition is a pure function of the
graph's construction order.

The best pair comes off a lazy max-heap.  Invariant: every pair with a
positive key has an entry whose stored key is at least its true key.
A popped entry is re-scored; a stale one goes back with its true key if
that is still positive.  When ``i`` absorbs ``j`` only the neighbours of
``j`` get fresh entries: the keys of ``i``'s other neighbours can only
fall, so their entries stay upper bounds.  The first popped entry whose
stored key is exact is therefore the best pair, ties included, and the
run costs O(m log m) heap operations where a rescan per merge costs
O(merges * m).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

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
    heap_pops:
        Heap entries popped, stale ones included: the run's work count.
    """

    partition: Partition
    modularity: float
    merges: int
    elapsed_seconds: float
    heap_pops: int


def greedy_modularity(graph: CompiledGraph) -> GreedyModularityResult:
    """Run CNM greedy modularity maximisation on a compiled graph.

    Agglomerates in dense-id (insertion-rank) space with exact integer
    gains and lowest-pair tie-breaking, so the partition is a pure
    function of the graph's construction order.

    Raises :class:`AlgorithmError` on edgeless graphs, where modularity
    is undefined.
    """
    m = graph.number_of_edges()
    if m == 0:
        raise AlgorithmError("greedy modularity needs at least one edge")
    start = time.perf_counter()
    n = graph.number_of_nodes()
    two_m = 2 * m

    # Community ids start as node ids.  members[i]: the member ids of
    # community i (None once absorbed); e[i][j]: edges between
    # communities i and j (i != j); inner[i]: edges inside i; d[i]: the
    # degree sum of i.
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    d: List[int] = graph.degrees.tolist()
    e: List[Dict[int, int]] = [
        dict.fromkeys(indices[indptr[i] : indptr[i + 1]], 1) for i in range(n)
    ]
    members: List[Optional[List[int]]] = [[i] for i in range(n)]
    inner = [0] * n

    # Entries are (-key, i, j) with i < j: heapq pops the largest key,
    # then the lowest (i, j).
    heap = [
        (-key, i, j)
        for i in range(n)
        for j in indices[indptr[i] : indptr[i + 1]]
        if j > i and (key := two_m - d[i] * d[j]) > 0
    ]
    heapify(heap)

    merges = pops = 0
    while heap:
        negative, i, j = heappop(heap)
        pops += 1
        if members[i] is None or members[j] is None:
            continue  # one side was absorbed; its pairs live on under i
        key = two_m * e[i][j] - d[i] * d[j]
        if key != -negative:
            if key > 0:
                heappush(heap, (-key, i, j))
            continue
        # Merge j into i: the lower id survives.
        members[i] += members[j]
        members[j] = None
        row_i, row_j = e[i], e[j]
        inner[i] += inner[j] + row_j.pop(i)
        del row_i[j]
        d[i] += d[j]
        for k, count in row_j.items():
            row_k = e[k]
            del row_k[j]
            row_k[i] = row_i[k] = row_i.get(k, 0) + count
            key = two_m * row_i[k] - d[i] * d[k]
            if key > 0:
                heappush(heap, (-key, i, k) if i < k else (-key, k, i))
        e[j] = {}
        merges += 1

    survivors = [c for c in range(n) if members[c] is not None]
    q = sum(4 * m * inner[c] - d[c] * d[c] for c in survivors) / (4 * m * m)
    return GreedyModularityResult(
        partition=Partition(members[c] for c in survivors),
        modularity=q,
        merges=merges,
        elapsed_seconds=time.perf_counter() - start,
        heap_pops=pops,
    )
