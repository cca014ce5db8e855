"""The seed neighbourhood of OCA: each local search starts from "a
random neighbourhood of the seed" (Section IV of the paper).
"""

from __future__ import annotations

from typing import List, Set

from .._rng import SeedLike, as_random
from ..errors import NodeNotFoundError
from .csr import CompiledGraph, compile_graph
from .graph import Graph, Node

__all__ = ["random_neighborhood_subset"]


def _rank_ordered_neighbors(graph, node: Node) -> List[Node]:
    """The neighbours of ``node`` in insertion-rank order.

    The compiled CSR form stores every row sorted by dense id — which
    *is* the insertion rank — so for a :class:`Graph` (compiled once,
    cached) or a :class:`CompiledGraph` the canonical order is free.
    """
    if isinstance(graph, CompiledGraph):
        return graph.labels_of(graph.neighbors(node))
    if not graph.has_node(node):
        raise NodeNotFoundError(node)
    compiled = compile_graph(graph)
    return compiled.labels_of(compiled.neighbors(compiled.id_of(node)))


def random_neighborhood_subset(
    graph: Graph,
    node: Node,
    fraction: float = 0.5,
    seed: SeedLike = None,
) -> Set[Node]:
    """A random subset of the closed neighbourhood of ``node``.

    This is the paper's "random neighbourhood of the seed" used to start
    each OCA run: the seed node is always included; each neighbour joins
    independently with probability ``fraction``.

    Neighbours consume the RNG in **insertion-rank order** (the compiled
    CSR row order), not Python set-iteration order, so the draw — and
    therefore every OCA cover — is a pure function of the graph's
    construction order, the seed, and the batch size, for every label
    type and across interpreter runs.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    rng = as_random(seed)
    chosen: Set[Node] = {node}
    for neighbour in _rank_ordered_neighbors(graph, node):
        if rng.random() < fraction:
            chosen.add(neighbour)
    return chosen
