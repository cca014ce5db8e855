"""Maximal clique enumeration: pivoted Bron–Kerbosch on per-vertex bitsets.

CFinder "is based on retrieving all cliques of the graph; however, this
operation turns out to be prohibitive for large graphs" — that cost is
precisely what the paper's Figure 5 exhibits.  This module enumerates
every maximal clique exactly once, so the clique-percolation baseline is
faithful, enumeration cost included.

The kernel follows Eppstein, Löffler and Strash, "Listing all maximal
cliques in sparse graphs in near-optimal time" (ISAAC 2010).  Vertices
are visited in ascending degree order, and each vertex ``v`` gets one
small subproblem:

* ``P`` is ``v``'s *later* neighbours in the order;
* ``X`` is its *earlier* neighbours that have a neighbour in ``P``;
* ``v`` is skipped when ``P`` is empty (an isolated vertex is reported
  as a one-node clique).

A maximal clique is reported only by the subproblem of its earliest
member, so every clique comes out exactly once whatever the order; the
order changes the speed, never the clique set.  Each subproblem gives
its vertices local bit positions and holds ``P``, ``X`` and every local
adjacency row as Python ``int`` bitsets, and the Tomita pivot (the
vertex of ``P ∪ X`` maximising ``popcount(adj[u] & P)``) prunes the
search.  Set algebra on a frame is then one C-level big-int operation
on integers as wide as ``v``'s neighbourhood.  Local positions matter:
bitsets over global ids grow as wide as the highest node id and lose
to Python sets on large graphs.

:func:`maximal_cliques` is the label-keyed entry point on any graph;
:func:`clique_ids` is the dense-id kernel that the percolation of
:mod:`repro.baselines.cpm` consumes.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterator, Tuple

import numpy as np

from ..graph import Graph
from ..graph.csr import CompiledGraph, compile_graph

__all__ = [
    "maximal_cliques",
    "clique_number",
]

Node = Hashable

# int.bit_count needs Python 3.10; the fallback counts the same bits.
_popcount = getattr(int, "bit_count", None) or (lambda x: bin(x).count("1"))


def clique_ids(compiled: CompiledGraph) -> Iterator[Tuple[int, ...]]:
    """Yield every maximal clique of ``compiled`` once, as dense ids.

    Each clique is a tuple whose first member is its earliest vertex in
    the visiting order; the rest follow in discovery order.
    """
    n = compiled.number_of_nodes()
    indptr, indices = compiled.indptr, compiled.indices
    degrees = compiled.degrees
    # Ascending degree, ties by id: a cheap stand-in for the degeneracy
    # order that keeps every P small.
    order = np.argsort(degrees, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    later = rank[indices] > np.repeat(rank, degrees)
    later_ptr = np.concatenate(([0], np.cumsum(later)))[indptr]
    earlier_ptr = (indptr - later_ptr).tolist()
    later_ptr = later_ptr.tolist()
    later_flat = indices[later].tolist()
    earlier_flat = indices[~later].tolist()
    neighbours = compiled.neighbor_sets()
    degree_list = degrees.tolist()
    popcount = _popcount

    for v in order.tolist():
        later_ids = later_flat[later_ptr[v] : later_ptr[v + 1]]
        if not later_ids:
            if not degree_list[v]:
                yield (v,)
            continue
        candidates = set(later_ids)
        excluded_ids = [
            w
            for w in earlier_flat[earlier_ptr[v] : earlier_ptr[v + 1]]
            if not candidates.isdisjoint(neighbours[w])
        ]
        local = later_ids + excluded_ids
        bit = {u: 1 << i for i, u in enumerate(local)}
        lookup = bit.__getitem__
        # A candidate's row is its whole local neighbourhood, which is
        # exactly N(u) ∩ N(v): every earlier common neighbour touches u,
        # so it made X.  An excluded vertex only needs its P-part.
        around = neighbours[v]
        adj = [sum(map(lookup, neighbours[u] & around)) for u in later_ids]
        adj.extend(
            sum(map(lookup, neighbours[w] & candidates)) for w in excluded_ids
        )
        p_all = (1 << len(later_ids)) - 1
        stack = [((v,), p_all, ((1 << len(local)) - 1) ^ p_all)]
        while stack:
            clique, p, x = stack.pop()
            if not p:
                if not x:
                    yield clique
                continue
            # Tomita pivot: the first vertex of P ∪ X (lowest bit) with
            # the most neighbours in P.  Only a vertex of X can be
            # adjacent to all of P; nothing beats it, so the scan stops.
            size = popcount(p)
            best = -1
            pivot_row = 0
            scan = p | x
            while scan:
                low = scan & -scan
                row = adj[low.bit_length() - 1]
                count = popcount(row & p)
                if count > best:
                    best, pivot_row = count, row
                    if count == size:
                        break
                scan ^= low
            branch = p & ~pivot_row
            while branch:
                low = branch & -branch
                position = low.bit_length() - 1
                row = adj[position]
                stack.append((clique + (local[position],), p & row, x & row))
                p ^= low
                x |= low
                branch ^= low


def maximal_cliques(graph: Graph) -> Iterator[FrozenSet[Node]]:
    """Yield every maximal clique of ``graph`` exactly once, by label.

    Runs on any graph backend: a dict graph is compiled (and the
    compiled form cached on it, as a detection would), the kernel runs
    in dense-id space, and each clique is mapped back to the graph's
    labels.  Isolated nodes are reported as single-node cliques.
    """
    compiled = compile_graph(graph)
    for clique in clique_ids(compiled):
        yield frozenset(compiled.labels_of(clique))


def clique_number(graph: Graph) -> int:
    """The size of the largest clique (0 for the empty graph)."""
    return max((len(clique) for clique in maximal_cliques(graph)), default=0)
