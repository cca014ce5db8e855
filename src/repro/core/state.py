"""Incrementally-maintained statistics of a growing community.

The greedy search of Section IV repeatedly asks "what happens to the
fitness if node ``u`` joins / leaves ``S``?".  Answering that from scratch
costs ``O(|S| * deg)``, which would make OCA quadratic; this module keeps
the aggregates the fitness functions need — ``|S|``, ``E_in(S)`` and the
degree volume — plus, per node, its member-link count: for a member its
internal degree (removal changes ``E_in`` by exactly ``-internal_degree``),
for a frontier node the links it would bring in (addition changes
``E_in`` by exactly ``+links``).

:class:`ArrayCommunityState` keeps those counts in one flat int32 array
over the dense ids of a :class:`~repro.graph.csr.CompiledGraph`, so one
mutation costs one vectorised scatter over the node's CSR row, O(deg),
and a greedy step costs that scatter plus two O(n) probes in C.

For fitness functions that are monotone in ``E_in`` at fixed size — the
paper's directed Laplacian and ``phi`` both are — the best addition is
simply a frontier node with the maximum member-link count and the best
removal a member with the minimum internal degree, so one greedy step is
an argmax and an argmin over that same array.  Ties among equally-good
moves are broken by the lowest dense id, which is the node's insertion
rank, so every OCA cover is a pure function of the graph's construction
order and independent of Python's set iteration order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import AlgorithmError, NodeNotFoundError
from ..graph.csr import CompiledGraph
from .fitness import FitnessFunction

__all__ = ["ArrayCommunityState"]


class ArrayCommunityState:
    """Mutable community over a compiled graph's dense ids.

    Members are dense ids, and every per-node count lives in one int32
    array ``_links`` of length ``n``, exact for every node:

    * a *non-member*'s entry is its member-link count (0 off the
      frontier), so ``argmax`` is the best addition;
    * a *member*'s entry is its internal degree minus ``OFFSET``, always
      negative, so ``argmin`` is the best removal and no member can win
      the ``argmax``.

    numpy returns the *first* extremum, so both probes break ties by the
    lowest id.  Adding or removing a node moves its own entry across
    zero and bumps its whole CSR row by one, whichever side each
    neighbour is on: **one** scatter per move.
    """

    #: Shift that puts every member below every non-member.
    #: :func:`~repro.graph.csr.compile_graph` rejects degrees ``>= 2**29``,
    #: so a member's entry stays in ``[-2**30, -2**29)``.
    OFFSET = 2**30

    __slots__ = ("graph", "_indptr", "_indices", "_degrees", "_links",
                 "_size", "_internal_edges", "_volume")

    def __init__(
        self, graph: CompiledGraph, members: Iterable[int] = ()
    ) -> None:
        self.graph = graph
        self._indptr = graph.indptr
        self._indices = graph.indices
        self._degrees = graph.degrees
        self._links = np.zeros(graph.number_of_nodes(), dtype=np.int32)
        self._size = 0
        self._internal_edges = 0
        self._volume = 0
        for node in sorted(set(int(node) for node in members)):
            self.add(node)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def members(self) -> List[int]:
        """The current member ids, ascending."""
        return self.member_id_array().tolist()

    @property
    def size(self) -> int:
        """``|S|``."""
        return self._size

    @property
    def internal_edges(self) -> int:
        """``E_in(S)`` — edges with both endpoints inside."""
        return self._internal_edges

    @property
    def volume(self) -> int:
        """Sum of full-graph degrees over the members."""
        return self._volume

    @property
    def frontier(self) -> Dict[int, int]:
        """Non-members adjacent to the community -> #member neighbours.

        Materialised on demand (ascending id order); the hot path never
        calls this — it exists for the non-monotone fitness fallback and
        for tests.
        """
        ids = self.frontier_id_array()
        return dict(zip(ids.tolist(), self._links[ids].tolist()))

    def internal_degree_of(self, node: int) -> int:
        """How many member neighbours a *member* id has."""
        if node not in self:
            raise AlgorithmError(f"{node!r} is not a member")
        return int(self._links[node]) + self.OFFSET

    def best_frontier_node(self) -> Optional[int]:
        """The lowest-id frontier node with the most member links."""
        if self._size == 0:
            return None
        node = int(self._links.argmax())
        if self._links[node] <= 0:
            return None
        return node

    def weakest_member(self) -> Optional[int]:
        """The lowest-id member with the fewest member links."""
        if self._size == 0:
            return None
        return int(self._links.argmin())

    def __contains__(self, node: object) -> bool:
        return (
            isinstance(node, (int, np.integer))
            and 0 <= node < len(self._links)
            and bool(self._links[node] < 0)
        )

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Bulk read access (the vectorised baseline kernels)
    # ------------------------------------------------------------------
    def member_id_array(self) -> np.ndarray:
        """Member ids as an array, ascending (== insertion-rank order)."""
        return (self._links < 0).nonzero()[0]

    def frontier_id_array(self) -> np.ndarray:
        """Frontier ids as an array, ascending."""
        return (self._links > 0).nonzero()[0]

    def frontier_gain_array(self, ids: np.ndarray) -> np.ndarray:
        """Member-link counts of the given frontier ids — the exact
        ``E_in`` gain of adding each one."""
        return self._links[ids]

    def internal_degree_array(self, ids: np.ndarray) -> np.ndarray:
        """Internal degrees of the given member ids — the exact ``E_in``
        loss of removing each one."""
        return self._links[ids] + self.OFFSET

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _bump_neighbours(self, node: int, delta: int) -> None:
        """Add ``delta`` to every entry of ``node``'s CSR row.

        The row is cast to intp once: numpy converts an int32 index
        array for the gather and again for the scatter of ``+=``.
        """
        row = self._indices[self._indptr[node] : self._indptr[node + 1]]
        self._links[row.astype(np.intp)] += delta

    def add(self, node: int) -> None:
        """Add id ``node`` to the community (one scatter, O(deg))."""
        if not 0 <= node < len(self._links):
            raise NodeNotFoundError(node)
        gained = self._links.item(node)
        if gained < 0:
            raise AlgorithmError(f"{node!r} is already a member")
        self._links[node] = gained - self.OFFSET
        self._size += 1
        self._internal_edges += gained
        self._volume += self._degrees.item(node)
        self._bump_neighbours(node, 1)

    def remove(self, node: int) -> None:
        """Remove member id ``node`` (one scatter, O(deg))."""
        if not 0 <= node < len(self._links) or self._links.item(node) >= 0:
            raise AlgorithmError(f"{node!r} is not a member")
        lost = self._links.item(node) + self.OFFSET
        self._links[node] = lost
        self._size -= 1
        self._internal_edges -= lost
        self._volume -= self._degrees.item(node)
        self._bump_neighbours(node, -1)

    # ------------------------------------------------------------------
    # Fitness probes
    # ------------------------------------------------------------------
    def value(self, fitness: FitnessFunction) -> float:
        """The fitness of the current community."""
        return fitness.value(self._size, self._internal_edges, self._volume)

    def value_if_added(self, node: int, fitness: FitnessFunction) -> float:
        """The fitness after hypothetically adding frontier id ``node``."""
        gained = int(self._links[node])
        if gained < 0:
            raise AlgorithmError(f"{node!r} is already a member")
        return fitness.value(
            self._size + 1,
            self._internal_edges + gained,
            self._volume + int(self._degrees[node]),
        )

    def value_if_removed(self, node: int, fitness: FitnessFunction) -> float:
        """The fitness after hypothetically removing member id ``node``."""
        lost = int(self._links[node]) + self.OFFSET
        if lost >= self.OFFSET:
            raise AlgorithmError(f"{node!r} is not a member")
        return fitness.value(
            self._size - 1,
            self._internal_edges - lost,
            self._volume - int(self._degrees[node]),
        )

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Recompute everything from the member set and compare (test hook)."""
        member = self._links < 0
        member_ids = member.nonzero()[0]
        if len(member_ids) != self._size:
            raise AlgorithmError(
                f"size drift: tracked {self._size}, actual {len(member_ids)}"
            )
        expected_volume = int(self._degrees[member_ids].sum())
        if expected_volume != self._volume:
            raise AlgorithmError(
                f"volume drift: tracked {self._volume}, actual {expected_volume}"
            )
        link = np.zeros(len(self._links), dtype=np.int32)
        for node in member_ids:
            link[self.graph.neighbors(int(node))] += 1
        expected_edges = int(link[member_ids].sum()) // 2
        if expected_edges != self._internal_edges:
            raise AlgorithmError(
                f"internal edge drift: tracked {self._internal_edges}, "
                f"actual {expected_edges}"
            )
        link[member_ids] -= self.OFFSET
        if not np.array_equal(self._links, link):
            raise AlgorithmError("member-link count drift")
