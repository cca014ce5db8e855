"""Incrementally-maintained statistics of a growing community.

The greedy search of Section IV repeatedly asks "what happens to the
fitness if node ``u`` joins / leaves ``S``?".  Answering that from scratch
costs ``O(|S| * deg)``, which would make OCA quadratic; this module keeps
the aggregates the fitness functions need — ``|S|``, ``E_in(S)`` and the
degree volume — plus, per node, its member-link count: for a member its
internal degree (removal changes ``E_in`` by exactly ``-internal_degree``),
for a frontier node the links it would bring in (addition changes
``E_in`` by exactly ``+links``).

:class:`ArrayCommunityState` keeps those counters in flat numpy arrays
over the dense ids of a :class:`~repro.graph.csr.CompiledGraph`, so one
mutation updates a whole neighbourhood with vectorised fancy-indexing,
and a whole greedy run stays linear in the explored volume — the
property behind the paper's Figure 5 scalability results.

For fitness functions that are monotone in ``E_in`` at fixed size — the
paper's directed Laplacian and ``phi`` both are — the best addition is
simply a frontier node with the maximum member-link count and the best
removal a member with the minimum internal degree, so one greedy step is
an argmax and an argmin.  Ties among equally-good moves are broken by
the lowest dense id, which is the node's insertion rank, so every OCA
cover is a pure function of the graph's construction order and
independent of Python's set iteration order.
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

    Members are dense ids, and all counters live in flat numpy arrays
    indexed by id, so one add/remove updates an entire neighbourhood
    with **two** fancy-indexing operations.

    Internals (all length ``n``):

    ``_member``
        Boolean membership mask.
    ``_frontier_score``
        For a *non-member*, exactly its member-link count (0 when not on
        the frontier); for a member, a value below ``-OFFSET + n`` that
        can never win an argmax.  ``argmax`` over the whole array is the
        best addition — numpy returns the *first* (lowest-id) maximum.
    ``_member_score``
        For a *member*, exactly its internal degree; for a non-member, a
        value above ``OFFSET - n`` that can never win an argmin.
        ``argmin`` is the best removal, lowest id first.

    The trick that gets add/remove down to two vector ops is *bounded
    drift*: a mutation bumps **both** score arrays for the whole
    neighbourhood unconditionally, without splitting it by membership.
    The half of each array that is semantically live stays exact (the
    bump is precisely its +-1 counter update); the other half drifts
    away from its ``+-OFFSET`` parking value by at most ``deg`` per
    node, which keeps it on the losing side of every argmax/argmin
    (``OFFSET`` is ``2**30`` and :func:`~repro.graph.csr.compile_graph`
    rejects degrees ``>= 2**29``, so parked values cannot cross zero or
    overflow).  Parked entries are re-initialised exactly when a node
    changes membership, so drift never becomes visible.

    The argmax/argmin probes are O(n) single passes in C, and the
    per-task arrays are a few ``n``-byte buffers.
    """

    #: Parking distance for the semantically-dead half of each score
    #: array.  Drift is bounded by the maximum degree, which int32
    #: compilation bounds by ``2**31 / 4`` endpoints; 2**30 keeps parked
    #: scores sign-stable and overflow-free.
    OFFSET = 2**30

    __slots__ = ("graph", "_indptr", "_indices", "_degrees", "_member",
                 "_frontier_score", "_member_score",
                 "_size", "_internal_edges", "_volume")

    def __init__(
        self, graph: CompiledGraph, members: Iterable[int] = ()
    ) -> None:
        self.graph = graph
        n = graph.number_of_nodes()
        self._indptr = graph.indptr
        self._indices = graph.indices
        self._degrees = graph.degrees
        self._member = np.zeros(n, dtype=bool)
        self._frontier_score = np.zeros(n, dtype=np.int32)
        self._member_score = np.full(n, self.OFFSET, dtype=np.int32)
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
        return [int(node) for node in np.flatnonzero(self._member)]

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
        scores = np.where(self._member, np.int32(0), self._frontier_score)
        ids = np.flatnonzero(scores > 0)
        return {int(node): int(scores[node]) for node in ids}

    def internal_degree_of(self, node: int) -> int:
        """How many member neighbours a *member* id has."""
        if not (0 <= node < len(self._member)) or not self._member[node]:
            raise AlgorithmError(f"{node!r} is not a member")
        return int(self._member_score[node])

    def best_frontier_node(self) -> Optional[int]:
        """The lowest-id frontier node with the most member links."""
        if self._size == 0 or self._size == len(self._member):
            return None
        node = int(self._frontier_score.argmax())
        if self._frontier_score[node] <= 0:
            return None
        return node

    def weakest_member(self) -> Optional[int]:
        """The lowest-id member with the fewest member links."""
        if self._size == 0:
            return None
        return int(self._member_score.argmin())

    def __contains__(self, node: object) -> bool:
        return (
            isinstance(node, (int, np.integer))
            and 0 <= node < len(self._member)
            and bool(self._member[node])
        )

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Bulk read access (the vectorised baseline kernels)
    # ------------------------------------------------------------------
    def member_id_array(self) -> np.ndarray:
        """Member ids as an array, ascending (== insertion-rank order)."""
        return np.flatnonzero(self._member)

    def frontier_id_array(self) -> np.ndarray:
        """Frontier ids as an array, ascending.

        Members park their frontier score far below zero, so a single
        vectorised comparison reads the frontier off the score array.
        """
        return np.flatnonzero(self._frontier_score > 0)

    def frontier_gain_array(self, ids: np.ndarray) -> np.ndarray:
        """Member-link counts of the given frontier ids — the exact
        ``E_in`` gain of adding each one."""
        return self._frontier_score[ids]

    def internal_degree_array(self, ids: np.ndarray) -> np.ndarray:
        """Internal degrees of the given member ids — the exact ``E_in``
        loss of removing each one."""
        return self._member_score[ids]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _neighbour_ids(self, node: int) -> np.ndarray:
        """``node``'s CSR row as an intp copy.

        numpy converts an int32 index array to intp for every gather and
        scatter; each ``+= 1`` does both, so one cast per mutation saves
        three conversions.  The copy is per call, not a persistent intp
        twin of ``indices``, which would double the graph's memory.
        """
        return self._indices[self._indptr[node] : self._indptr[node + 1]].astype(
            np.intp
        )

    def add(self, node: int) -> None:
        """Add id ``node`` to the community (vectorised, O(deg))."""
        if not 0 <= node < len(self._member):
            raise NodeNotFoundError(node)
        if self._member[node]:
            raise AlgorithmError(f"{node!r} is already a member")
        gained = int(self._frontier_score[node])
        self._member[node] = True
        self._frontier_score[node] = -self.OFFSET
        self._member_score[node] = gained
        self._size += 1
        self._internal_edges += gained
        self._volume += int(self._degrees[node])
        neighbours = self._neighbour_ids(node)
        self._frontier_score[neighbours] += 1
        self._member_score[neighbours] += 1

    def remove(self, node: int) -> None:
        """Remove member id ``node`` (vectorised, O(deg))."""
        if not (0 <= node < len(self._member)) or not self._member[node]:
            raise AlgorithmError(f"{node!r} is not a member")
        lost = int(self._member_score[node])
        self._member[node] = False
        self._frontier_score[node] = lost
        self._member_score[node] = self.OFFSET
        self._size -= 1
        self._internal_edges -= lost
        self._volume -= int(self._degrees[node])
        neighbours = self._neighbour_ids(node)
        self._frontier_score[neighbours] -= 1
        self._member_score[neighbours] -= 1

    # ------------------------------------------------------------------
    # Fitness probes
    # ------------------------------------------------------------------
    def value(self, fitness: FitnessFunction) -> float:
        """The fitness of the current community."""
        return fitness.value(self._size, self._internal_edges, self._volume)

    def value_if_added(self, node: int, fitness: FitnessFunction) -> float:
        """The fitness after hypothetically adding frontier id ``node``."""
        gained = int(self._frontier_score[node])
        if gained < 0:
            raise AlgorithmError(f"{node!r} is already a member")
        return fitness.value(
            self._size + 1,
            self._internal_edges + gained,
            self._volume + int(self._degrees[node]),
        )

    def value_if_removed(self, node: int, fitness: FitnessFunction) -> float:
        """The fitness after hypothetically removing member id ``node``."""
        lost = int(self._member_score[node])
        if lost >= self.OFFSET // 2:
            raise AlgorithmError(f"{node!r} is not a member")
        return fitness.value(
            self._size - 1,
            self._internal_edges - lost,
            self._volume - int(self._degrees[node]),
        )

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Recompute every aggregate from the arrays and compare (test hook).

        Checks the live half of each score array exactly and the parked
        half against its drift bounds.
        """
        member_ids = np.flatnonzero(self._member)
        if len(member_ids) != self._size:
            raise AlgorithmError(
                f"size drift: tracked {self._size}, actual {len(member_ids)}"
            )
        expected_volume = int(self._degrees[member_ids].sum())
        if expected_volume != self._volume:
            raise AlgorithmError(
                f"volume drift: tracked {self._volume}, actual {expected_volume}"
            )
        link = np.zeros(len(self._member), dtype=np.int32)
        for node in member_ids:
            link[self.graph.neighbors(int(node))] += 1
        expected_edges = int(link[member_ids].sum()) // 2
        if expected_edges != self._internal_edges:
            raise AlgorithmError(
                f"internal edge drift: tracked {self._internal_edges}, "
                f"actual {expected_edges}"
            )
        outside = ~self._member
        if not np.array_equal(
            self._frontier_score[outside], link[outside]
        ):
            raise AlgorithmError("frontier score drift on non-members")
        if not np.array_equal(self._member_score[member_ids], link[member_ids]):
            raise AlgorithmError("member score drift on members")
        half = self.OFFSET // 2
        if member_ids.size and int(self._frontier_score[member_ids].max()) > -half:
            raise AlgorithmError("parked frontier score crossed its bound")
        if outside.any() and int(self._member_score[outside].min()) < half:
            raise AlgorithmError("parked member score crossed its bound")
