"""CFinder: the k-clique percolation method of Palla et al. (ref. [12]).

A *k-clique community* is the union of all k-cliques reachable from one
another through chains of k-cliques sharing ``k - 1`` nodes.  CFinder's
own implementation (and ours) exploits the standard equivalence with
maximal cliques: restrict to maximal cliques of size >= k, connect two of
them when they share >= k - 1 nodes, and take connected components — each
component's node union is one community.  (Any two k-cliques inside one
maximal clique trivially percolate, and two maximal cliques sharing
``k - 1`` nodes contain adjacent k-cliques, so the equivalence is exact.)

The paper runs CFinder with ``k = 3``, "the value of the parameter k that
yielded the best results", and observes that the clique enumeration is
prohibitive on large instances — behaviour this implementation shares by
construction.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Set, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigurationError
from ..graph.csr import CompiledGraph
from .cliques import clique_ids

#: The ``cpm`` and ``cfinder`` detectors are the public entry points.
__all__: List[str] = []


def _percolate_ids(
    compiled: CompiledGraph, k: int = 3
) -> Tuple[List[Set[int]], int]:
    """k-clique percolation on a compiled graph, in dense-id space.

    Returns ``(communities as id sets, clique count)``, the communities
    in ascending order of their sorted member lists (so by smallest
    member first), whatever order the enumeration found the cliques in.

    Clique adjacency is discovered without a single pairwise comparison:
    two maximal cliques overlap in ``>= k - 1`` nodes **iff they share a
    (k-1)-subset** (the shared nodes all lie in both cliques, so any
    ``k - 1`` of them form a common subset; conversely a shared subset
    *is* ``k - 1`` common nodes).  So the cliques are stacked into one
    row-sorted array per clique size, each emits its member
    (k-1)-subsets as rows of an int array, one sort of the rows folded
    into int64 keys groups equal subsets, the cliques of a group are
    linked in a chain, and the percolation components drop out of one
    ``connected_components`` call on the resulting link graph: ``O(S
    log S)`` for ``S`` total subsets, where the published CFinder
    procedure compares every pair of cliques.  Both compute the same
    overlap relation, so the communities are the same.

    ``k`` must be at least 2 (k = 2 degenerates to connected components
    of the edge set, which is still well-defined and occasionally useful
    as a sanity baseline).
    """
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    by_size: Dict[int, List[Tuple[int, ...]]] = {}
    for clique in clique_ids(compiled):
        if len(clique) >= k:
            by_size.setdefault(len(clique), []).append(clique)
    if not by_size:
        return [], 0
    # One (cliques, size) array per size, sorted along its rows once so
    # equal subsets become equal rows.  Clique ``i`` is row ``i`` of the
    # stacks taken in order.
    stacks = [np.array(by_size[size], dtype=np.int32) for size in sorted(by_size)]
    for stacked in stacks:
        stacked.sort(axis=1)
    offsets = np.cumsum([0] + [len(stacked) for stacked in stacks])
    count = int(offsets[-1])

    # Emit every clique's (k-1)-subsets, one fancy-indexing broadcast
    # per size: the C(s, k-1) combination templates index the (m, s)
    # stack into (m, C, k-1), and a reshape flattens to subset rows.
    subset_parts: List[np.ndarray] = []
    owner_parts: List[np.ndarray] = []
    for first, stacked in zip(offsets, stacks):
        templates = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations(range(stacked.shape[1]), k - 1)
            ),
            dtype=np.int64,
        ).reshape(-1, k - 1)
        subset_parts.append(stacked[:, templates].reshape(-1, k - 1))
        owner_parts.append(
            np.repeat(np.arange(first, first + len(stacked)), len(templates))
        )
    subsets = np.concatenate(subset_parts)
    owner = np.concatenate(owner_parts)

    # Group equal subset rows: fold each row into one int64 key (the
    # key is re-densified before each further column, so it stays below
    # #subsets * n), sort the keys once, and link every owner to the
    # owner of the row before it when both rows hold the same subset.
    n = compiled.number_of_nodes()
    key = subsets[:, 0].astype(np.int64)
    for column in range(1, k - 1):
        if column > 1:
            key = np.unique(key, return_inverse=True)[1]
        key = key * n + subsets[:, column]
    order = np.argsort(key)
    key = key[order]
    owner = owner[order]
    same = key[1:] == key[:-1]
    link_graph = sp.csr_matrix(
        (
            np.ones(int(same.sum()), dtype=np.int8),
            (owner[:-1][same], owner[1:][same]),
        ),
        shape=(count, count),
    )
    _, labels = sp.csgraph.connected_components(link_graph, directed=False)

    # A community is the union of its cliques: the unique (component,
    # member) pairs, encoded as component * n + member and split where
    # the component changes.
    labels = labels.astype(np.int64)
    pairs = np.unique(
        np.concatenate(
            [
                np.repeat(labels[first : first + len(stacked)], stacked.shape[1]) * n
                + stacked.ravel()
                for first, stacked in zip(offsets, stacks)
            ]
        )
    )
    component, members = np.divmod(pairs, n)
    bounds = np.flatnonzero(np.diff(component)) + 1
    communities = sorted(part.tolist() for part in np.split(members, bounds))
    return [set(part) for part in communities], count
