"""Compiled CSR graph representation: the integer-id hot path.

The paper runs OCA on graphs "managed with C++ structures created ad hoc
for this problem".  :class:`~repro.graph.Graph` is the mutable,
label-keyed construction API; this module is the performance substrate
behind it: :func:`compile_graph` freezes a graph into a
:class:`CompiledGraph` — three int32 numpy arrays in compressed sparse
row (CSR) layout plus a label↔dense-id mapping — on which the greedy
search runs entirely in integer-id space with vectorised neighbourhood
updates.

Why every algorithm runs on it
------------------------------
* **Hot-path speed.**  The dict-of-sets :class:`Graph` pays a hash
  lookup and a pointer chase per neighbour per greedy event.  The CSR
  arrays turn a whole neighbourhood update into a handful of numpy
  fancy-indexing operations (see
  :class:`~repro.core.state.ArrayCommunityState`).
* **One out-of-process form.**  The three arrays are saved as ``.npy``
  files (:func:`save_csr`) and memory-mapped back read-only
  (:func:`map_csr`): the graph store persists compiled graphs that
  way, and a process pool started by ``spawn`` or ``forkserver`` hands
  its workers a directory of them to map instead of a pickled copy.
* **Determinism.**  Dense ids are insertion ranks, a canonical total
  order every kernel breaks ties by, so covers do not depend on
  Python's set iteration order.

The compiled form is **immutable**: it is built once per graph (cached
on the :class:`Graph` instance and invalidated by any mutation) and
never written to.  Row neighbour lists are sorted by dense id, which
makes neighbour arrays canonical regardless of construction order.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Set,
    Union,
    runtime_checkable,
)

import numpy as np

from ..errors import GraphError, NodeNotFoundError
from .graph import Graph, Node

__all__ = [
    "GraphBackend",
    "CompiledGraph",
    "compile_graph",
    "attach_compiled",
    "CSR_ARRAYS",
    "save_csr",
    "map_csr",
]

#: CSR arrays are int32 (the ISSUE/paper scale fits comfortably); this is
#: the hard ceiling on node count and directed edge-endpoint count.
_INT32_MAX = np.iinfo(np.int32).max


@runtime_checkable
class GraphBackend(Protocol):
    """The read-only graph protocol shared by both graph forms.

    Both the mutable :class:`~repro.graph.Graph` (label-keyed) and the
    immutable :class:`CompiledGraph` (dense-id-keyed) satisfy it, so
    graph utilities (statistics, seeding, post-processing) accept
    either form.
    """

    def number_of_nodes(self) -> int:
        ...

    def number_of_edges(self) -> int:
        ...

    def has_node(self, node: Hashable) -> bool:
        ...

    def degree(self, node: Hashable) -> int:
        ...

    def neighbors(self, node: Hashable) -> Iterable[Hashable]:
        ...


class CompiledGraph:
    """An immutable CSR snapshot of a graph, keyed by dense integer ids.

    Attributes
    ----------
    indptr:
        int32 array of length ``n + 1``; node ``i``'s neighbours live in
        ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        int32 array of length ``2m``: the flattened, per-row-sorted
        neighbour ids.
    degrees:
        int32 array of length ``n``; ``degrees[i] == indptr[i+1] - indptr[i]``.

    Dense ids are insertion ranks: id ``i`` is the ``i``-th node in the
    source graph's insertion order, exactly the order
    :meth:`repro.graph.Graph.node_index` reports.  Original labels are
    recovered through :meth:`labels_of`; when the
    source labels already are ``0..n-1`` in order, translation is the
    identity and costs nothing (``identity_labels``).
    """

    __slots__ = (
        "indptr",
        "indices",
        "degrees",
        "_labels",
        "_index",
        "_num_edges",
        "spectral_cache",
        "_identity",
        "_fingerprint",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        labels: Optional[List[Node]],
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        self._labels = labels  # None == identity labels (0..n-1)
        self._index: Optional[Dict[Node, int]] = None
        self._num_edges = len(indices) // 2
        # Spectral results keyed by solver and tolerance parameters (see
        # repro.core.vector_space.shared_admissible_c).  Living on the
        # compiled form gives the cache the same lifetime: any graph
        # mutation drops the compiled form and the cached values with it.
        self.spectral_cache: Dict[tuple, float] = {}
        self._identity: Optional["CompiledGraph"] = None
        # Content-hash cache for the serving layer (see
        # repro.serving.fingerprint); None until first requested.
        self._fingerprint: Optional[str] = None

    @classmethod
    def from_shared(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        labels: Optional[List[Node]],
        spectral: Optional[Dict[tuple, float]] = None,
    ) -> "CompiledGraph":
        """Wrap already-mapped buffers (see :func:`map_csr`) zero-copy.

        A memory map keeps its own mapping alive for as long as an
        array over it is referenced.  ``spectral`` seeds the spectral
        cache, so a graph loaded with its ``c`` runs no spectral solve.
        """
        compiled = cls(
            indptr=indptr, indices=indices, degrees=degrees, labels=labels
        )
        if spectral:
            compiled.spectral_cache.update(spectral)
        return compiled

    # ------------------------------------------------------------------
    # Graph protocol (integer-id keyed)
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        """The node count ``n``."""
        return len(self.degrees)

    def number_of_edges(self) -> int:
        """The edge count ``m``."""
        return self._num_edges

    def has_node(self, node: int) -> bool:
        """Whether ``node`` is a valid dense id."""
        return isinstance(node, (int, np.integer)) and 0 <= node < len(self.degrees)

    def degree(self, node: int) -> int:
        """The degree of dense id ``node``."""
        if not self.has_node(node):
            raise NodeNotFoundError(node)
        return int(self.degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """The neighbour ids of ``node`` as a read-only array view."""
        if not self.has_node(node):
            raise NodeNotFoundError(node)
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def nodes(self) -> Iterator[int]:
        """Iterate over dense ids in order."""
        return iter(range(len(self.degrees)))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ids ``u`` and ``v`` are adjacent (binary search, O(log d))."""
        row = self.neighbors(u)
        position = int(np.searchsorted(row, v))
        return position < len(row) and int(row[position]) == int(v)

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self) -> Iterator[int]:
        return self.nodes()

    def __contains__(self, node: object) -> bool:
        return self.has_node(node)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Label translation (the cover boundary)
    # ------------------------------------------------------------------
    @property
    def identity_labels(self) -> bool:
        """True when labels are exactly ``0..n-1`` in insertion order."""
        return self._labels is None

    @property
    def labels(self) -> List[Node]:
        """All original labels, indexed by dense id."""
        if self._labels is None:
            return list(range(len(self.degrees)))
        return list(self._labels)

    @property
    def index(self) -> Dict[Node, int]:
        """Original label -> dense id (built lazily, not shipped in pickles)."""
        if self._index is None:
            if self._labels is None:
                self._index = {i: i for i in range(len(self.degrees))}
            else:
                self._index = {label: i for i, label in enumerate(self._labels)}
        return self._index

    def id_of(self, label: Node) -> int:
        """The dense id of an original label (KeyError if absent)."""
        if self._labels is None:
            node_id = int(label)  # type: ignore[arg-type]
            if not 0 <= node_id < len(self.degrees):
                raise KeyError(label)
            return node_id
        return self.index[label]

    def labels_of(self, ids: Iterable[int]) -> List[Node]:
        """Translate dense ids back to original labels."""
        if self._labels is None:
            return [int(node_id) for node_id in ids]
        labels = self._labels
        return [labels[node_id] for node_id in ids]

    def as_identity(self) -> "CompiledGraph":
        """This graph with labels erased to the dense ids ``0..n-1``.

        The identity view shares the CSR arrays (no copy) and the
        spectral cache dict, and is cached on the instance.  Detectors
        run labelled graphs in id space, so a ``c`` they solve lands in
        the parent's cache too: the graph store persists it with the
        parent, and a ``c`` the store restores onto the parent is read
        by the next detect.
        """
        if self._labels is None:
            return self
        if self._identity is None:
            self._identity = CompiledGraph(
                indptr=self.indptr,
                indices=self.indices,
                degrees=self.degrees,
                labels=None,
            )
            self._identity.spectral_cache = self.spectral_cache
        return self._identity

    # ------------------------------------------------------------------
    def neighbor_sets(self) -> List[Set[int]]:
        """Materialise every row as a Python int set (O(n + 2m)).

        The bridge for set-based algorithms running on a compiled graph
        (the clique kernel's per-vertex neighbourhoods, for one): one
        pass over the CSR arrays instead of per-node ``neighbors()``
        calls and conversions.  Not cached — callers that need it
        across calls should keep the list.
        """
        indptr, indices = self.indptr, self.indices
        flat = indices.tolist()
        return [
            set(flat[indptr[i] : indptr[i + 1]])
            for i in range(len(self.degrees))
        ]

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Memory footprint of the three CSR arrays, in bytes."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.degrees.nbytes)

    def __getstate__(self):
        # The label->id index is derived state: rebuilt lazily on first
        # use, never shipped, keeping worker payloads to the arrays plus
        # (for non-integer-labelled graphs) the label list.  The spectral
        # cache *does* travel — a handful of floats that save every
        # receiving worker a full power-method run.
        return (
            self.indptr,
            self.indices,
            self.degrees,
            self._labels,
            dict(self.spectral_cache),
        )

    def __setstate__(self, state) -> None:
        (
            self.indptr,
            self.indices,
            self.degrees,
            self._labels,
            self.spectral_cache,
        ) = state
        # numpy does not preserve the WRITEABLE flag across pickling;
        # re-lock so unpickled copies keep the immutability guarantee.
        for array in (self.indptr, self.indices, self.degrees):
            array.setflags(write=False)
        self._index = None
        self._num_edges = len(self.indices) // 2
        self._identity = None
        self._fingerprint = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return (
            f"CompiledGraph(n={self.number_of_nodes()}, "
            f"m={self.number_of_edges()}, nbytes={self.nbytes()})"
        )


def _build_csr(graph: Graph) -> CompiledGraph:
    """Compile ``graph`` into CSR arrays (no caching)."""
    order: List[Node] = list(graph.nodes())
    n = len(order)
    index = {node: i for i, node in enumerate(order)}
    if n > _INT32_MAX:
        raise GraphError(f"graph too large for int32 CSR ids: n={n}")

    degrees = np.fromiter(
        (len(graph.neighbors(node)) for node in order),
        dtype=np.int64,
        count=n,
    )
    total = int(degrees.sum())
    if total > _INT32_MAX:
        raise GraphError(
            f"graph too large for int32 CSR offsets: 2m={total}"
        )
    # The array community state parks dead scores at +-2**30 and lets
    # them drift by at most one per incident greedy event, so a degree
    # approaching 2**29 could push a parked score across zero.
    if n and int(degrees.max()) >= 2**29:
        raise GraphError(
            f"graph too dense for the int32 CSR hot path: "
            f"max degree {int(degrees.max())} >= 2**29"
        )
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(degrees)

    indices = np.empty(total, dtype=np.int32)
    for i, node in enumerate(order):
        start = indptr[i]
        row = indices[start : indptr[i + 1]]
        position = 0
        for neighbour in graph.neighbors(node):
            row[position] = index[neighbour]
            position += 1
        row.sort()

    identity = all(
        isinstance(node, int) and not isinstance(node, bool) and node == i
        for i, node in enumerate(order)
    )
    labels = None if identity else order
    degrees32 = degrees.astype(np.int32)
    # The compiled form is shared: cached on the graph, shipped to
    # workers, and aliased into scipy matrices (repro.graph.matrices).
    # Locking the buffers turns any would-be mutation into an immediate
    # ValueError instead of silent cache corruption.
    for array in (indptr, indices, degrees32):
        array.setflags(write=False)
    return CompiledGraph(
        indptr=indptr,
        indices=indices,
        degrees=degrees32,
        labels=labels,
    )


def compile_graph(graph) -> CompiledGraph:
    """The CSR form of ``graph``, built once and cached on the instance.

    Accepts a :class:`~repro.graph.Graph` (cached: repeated calls return
    the same object until the graph mutates) or a :class:`CompiledGraph`
    (returned as is).
    """
    if isinstance(graph, CompiledGraph):
        return graph
    if graph._compiled is None:
        graph._compiled = _build_csr(graph)
    return graph._compiled


#: The three CSR arrays, in the order they are saved and mapped.
CSR_ARRAYS = ("indptr", "indices", "degrees")


def save_csr(compiled: CompiledGraph, directory: Union[str, Path]) -> None:
    """Write the three CSR arrays into ``directory`` as ``<name>.npy``.

    Only the arrays: the label table and the spectral cache are the
    caller's to keep (the graph store writes them next to the arrays; a
    process pool's workers grow dense-id sets and need neither).
    """
    directory = Path(directory)
    for name in CSR_ARRAYS:
        # A memory-mapped array re-saves byte-identically;
        # ascontiguousarray is a no-op for the arrays _build_csr makes.
        array = np.ascontiguousarray(getattr(compiled, name))
        np.save(directory / f"{name}.npy", array)


def map_csr(directory: Union[str, Path]) -> Dict[str, np.ndarray]:
    """The arrays :func:`save_csr` wrote, memory-mapped read-only.

    Mapping costs O(1) whatever the graph's size, and every process
    that maps the same files shares one copy of their pages.  Each
    array is a plain ``ndarray`` view whose ``base`` is the
    :class:`numpy.memmap` (which keeps the mapping alive): the memmap
    subclass slices in Python, several times slower per neighbour row
    than an ``ndarray``.  Raises :class:`FileNotFoundError` when a file
    is gone.
    """
    directory = Path(directory)
    return {
        name: np.asarray(np.load(directory / f"{name}.npy", mmap_mode="r"))
        for name in CSR_ARRAYS
    }


def attach_compiled(graph: Graph, compiled: CompiledGraph) -> None:
    """Install a pre-built compiled form into ``graph``'s cache.

    Used by the process-pool initializers to hand workers the arrays
    compiled once in the driver, so worker-side ``compile_graph`` calls
    are cache hits instead of O(n + m) rebuilds.  Validates the shapes
    against the graph to catch stale payloads.
    """
    if (
        compiled.number_of_nodes() != graph.number_of_nodes()
        or compiled.number_of_edges() != graph.number_of_edges()
    ):
        raise GraphError(
            "compiled form does not match graph: "
            f"compiled (n={compiled.number_of_nodes()}, m={compiled.number_of_edges()}) "
            f"vs graph (n={graph.number_of_nodes()}, m={graph.number_of_edges()})"
        )
    graph._compiled = compiled

