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
from .cliques import maximal_cliques_ids

#: The ``cpm`` and ``cfinder`` detectors are the public entry points.
__all__: List[str] = []


def _percolate_ids(
    compiled: CompiledGraph, k: int = 3
) -> Tuple[List[Set[int]], int]:
    """k-clique percolation on a compiled graph, in dense-id space.

    Returns ``(communities as id sets, clique count)``.  Clique adjacency
    is discovered without a single pairwise comparison: two maximal
    cliques overlap in ``>= k - 1`` nodes **iff they share a
    (k-1)-subset** (the shared nodes all lie in both cliques, so any
    ``k - 1`` of them form a common subset; conversely a shared subset
    *is* ``k - 1`` common nodes).  So each clique emits its member
    (k-1)-subsets as rows of an int array, one lexsort groups equal
    subsets, every group links its cliques to the group's first owner,
    and the percolation components drop out of one
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
    cliques = [
        members for members in maximal_cliques_ids(compiled) if len(members) >= k
    ]
    count = len(cliques)
    if not count:
        return [], 0

    # Emit every clique's (k-1)-subsets, batched by clique size so each
    # batch is one fancy-indexing broadcast: cliques of size s stack
    # into an (m, s) matrix, the C(s, k-1) combination templates index
    # it into (m, C, k-1), and a reshape flattens to subset rows.
    by_size: Dict[int, List[int]] = {}
    for index, members in enumerate(cliques):
        by_size.setdefault(len(members), []).append(index)
    subset_parts: List[np.ndarray] = []
    owner_parts: List[np.ndarray] = []
    for size, clique_indices in by_size.items():
        owners = np.asarray(clique_indices, dtype=np.int64)
        stacked = np.stack([cliques[i] for i in clique_indices])
        templates = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations(range(size), k - 1)
            ),
            dtype=np.int64,
        ).reshape(-1, k - 1)
        subset_parts.append(stacked[:, templates].reshape(-1, k - 1))
        owner_parts.append(np.repeat(owners, len(templates)))
    subsets = np.concatenate(subset_parts)
    owner = np.concatenate(owner_parts)

    # Group equal subset rows with one lexsort (members are sorted
    # within each clique, so equal subsets are bytewise equal rows),
    # then link every owner to its group's first owner.
    order = np.lexsort(subsets.T[::-1])
    subsets = subsets[order]
    owner = owner[order]
    first_of_group = np.concatenate(
        ([True], np.any(subsets[1:] != subsets[:-1], axis=1))
    )
    representative = owner[first_of_group][np.cumsum(first_of_group) - 1]
    links = representative != owner
    link_graph = sp.csr_matrix(
        (
            np.ones(int(links.sum()), dtype=np.int8),
            (representative[links], owner[links]),
        ),
        shape=(count, count),
    )
    components, labels = sp.csgraph.connected_components(
        link_graph, directed=False
    )

    communities: List[Set[int]] = [set() for _ in range(components)]
    for index, members in enumerate(cliques):
        communities[labels[index]].update(members.tolist())
    return communities, count

