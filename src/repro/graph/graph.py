"""The core undirected simple-graph data structure.

The paper manages its graphs "with C++ structures created ad hoc for this
problem"; this module is the Python equivalent substrate.  :class:`Graph`
stores an adjacency-set map, which gives O(1) expected edge queries and
O(deg) neighbourhood iteration — exactly the operations the OCA greedy
search, LFK, and clique percolation need.

Design notes
------------
* Graphs are **simple** and **undirected**: self-loops and parallel edges
  are rejected at insertion time (the virtual vector representation of
  Section II of the paper is only defined for simple graphs).
* Nodes may be any hashable object.  Algorithms that need dense integer
  ids (the spectral routines) obtain them through
  :meth:`Graph.node_index`.
* The edge count is maintained incrementally so ``number_of_edges`` is O(1).
* This class is the mutable *construction* API.  Hot paths run on the
  immutable CSR form produced by :func:`repro.graph.csr.compile_graph`,
  which is cached here (``_compiled``) and invalidated by any mutation.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

from ..errors import GraphError, NodeNotFoundError, EdgeNotFoundError

__all__ = ["Graph", "Node", "Edge"]

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """An undirected simple graph backed by adjacency sets.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs inserted at construction.
    nodes:
        Optional iterable of nodes inserted at construction (useful for
        isolated nodes, which plain edge lists cannot express).

    Examples
    --------
    >>> g = Graph(edges=[(0, 1), (1, 2)])
    >>> g.number_of_nodes(), g.number_of_edges()
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_num_edges", "_compiled")

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        nodes: Iterable[Node] = (),
    ) -> None:
        self._adj: Dict[Node, Set[Node]] = {}
        self._num_edges: int = 0
        # Cache slot for the immutable CSR form (repro.graph.csr); owned
        # by compile_graph/attach_compiled, invalidated by any mutation.
        self._compiled = None
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Insert ``node``; a no-op if it is already present."""
        if node not in self._adj:
            self._adj[node] = set()
            self._compiled = None

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Insert every node of ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node) -> bool:
        """Insert the undirected edge ``{u, v}``, creating endpoints.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed.  Raises :class:`GraphError` on self-loops, which the
        virtual vector representation cannot express.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r}: simple graphs only")
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._compiled = None
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert every edge of ``edges``; return how many were new."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge ``{u, v}``.

        Raises :class:`EdgeNotFoundError` if it is absent.
        """
        neighbours = self._adj.get(u)
        if neighbours is None or v not in neighbours:
            raise EdgeNotFoundError(u, v)
        neighbours.discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._compiled = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is present."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        neighbours = self._adj.get(u)
        return neighbours is not None and v in neighbours

    def neighbors(self, node: Node) -> Set[Node]:
        """The neighbour set of ``node`` (a *live* set: do not mutate).

        Raises :class:`NodeNotFoundError` for absent nodes.
        """
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        """The degree of ``node``."""
        return len(self.neighbors(node))

    def number_of_nodes(self) -> int:
        """The node count ``n``."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """The edge count ``m``."""
        return self._num_edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once.

        The reported orientation is ``(u, v)`` where ``u`` was visited
        first in node insertion order.
        """
        seen: Set[Node] = set()
        for u, neighbours in self._adj.items():
            seen.add(u)
            for v in neighbours:
                if v not in seen:
                    yield (u, v)

    def edges_inside(self, nodes: Iterable[Node]) -> int:
        """Count edges with *both* endpoints in ``nodes``.

        This is the quantity the paper calls ``E_in(S)``; it is the only
        graph statistic the OCA fitness function needs.  Nodes absent from
        the graph are ignored.
        """
        node_set = nodes if isinstance(nodes, (set, frozenset)) else set(nodes)
        count = 0
        for u in node_set:
            neighbours = self._adj.get(u)
            if neighbours is None:
                continue
            if len(neighbours) <= len(node_set):
                count += sum(1 for v in neighbours if v in node_set)
            else:
                count += sum(1 for v in node_set if v in neighbours)
        return count // 2

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """An independent deep copy of the graph."""
        clone = Graph()
        clone._adj = {node: set(adj) for node, adj in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        # The compiled CSR cache is derived state; shipping it alongside
        # the adjacency map would double worker payloads.  Callers that
        # want the arrays ship the CompiledGraph itself (see
        # repro.graph.csr.attach_compiled).
        return (self._adj, self._num_edges)

    def __setstate__(self, state) -> None:
        self._adj, self._num_edges = state
        self._compiled = None

    def node_index(self) -> Dict[Node, int]:
        """A dense ``node -> int`` index in insertion order.

        The inverse mapping is ``list(self.nodes())``.
        """
        return {node: i for i, node in enumerate(self._adj)}

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.number_of_nodes()}, "
            f"m={self.number_of_edges()})"
        )
