"""Community hierarchy and relations — the paper's first future-work item.

"Now that the communities are identified, we will explore the hierarchies
and relations among them" (Section VI).  This module implements that
exploration:

* :func:`community_graph` — the *relation graph*: one node per community,
  weighted edges recording how strongly two communities interact, both by
  shared members and by cross edges in the underlying graph.
* :func:`hierarchical_oca` — recursive agglomeration: level 0 is OCA's
  cover of the input graph; each further level runs OCA *on the relation
  graph of the previous level's communities*, so related communities
  (overlapping petals and cores, attached flowers) merge into
  super-communities.  On a daisy tree this recovers flowers at level 1 —
  exactly the hierarchy the paper anticipates exploring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .._rng import SeedLike, as_random, spawn_seed
from ..communities import Cover
from ..core import OCAConfig
from ..detection import DetectionRequest
from ..detectors import get_detector
from ..errors import CommunityError
from ..graph import Graph

__all__ = [
    "CommunityRelation",
    "community_graph",
    "HierarchyLevel",
    "hierarchical_oca",
]


@dataclass(frozen=True)
class CommunityRelation:
    """One weighted edge of the community relation graph.

    Attributes
    ----------
    a / b:
        Indices (into the cover) of the related communities.
    shared_nodes:
        ``|A ∩ B|`` — overlap strength.
    cross_edges:
        Graph edges with one endpoint in ``A \\ B`` and one in ``B \\ A``
        — interaction strength beyond the shared membership.
    """

    a: int
    b: int
    shared_nodes: int
    cross_edges: int


def community_graph(graph: Graph, cover: Cover) -> List[CommunityRelation]:
    """All non-trivial relations between pairs of communities in ``cover``.

    A pair is related when it shares members or is joined by at least one
    cross edge.  O(k^2 * size) — covers are small relative to graphs.
    """
    communities = [set(c) for c in cover]
    relations: List[CommunityRelation] = []
    for i in range(len(communities)):
        for j in range(i + 1, len(communities)):
            a, b = communities[i], communities[j]
            shared = len(a & b)
            only_a = a - b
            only_b = b - a
            cross = 0
            smaller, larger = (only_a, only_b) if len(only_a) <= len(only_b) else (only_b, only_a)
            for node in smaller:
                if graph.has_node(node):
                    cross += sum(1 for v in graph.neighbors(node) if v in larger)
            if shared or cross:
                relations.append(
                    CommunityRelation(a=i, b=j, shared_nodes=shared, cross_edges=cross)
                )
    return relations


@dataclass
class HierarchyLevel:
    """One level of the hierarchical decomposition (0 = finest)."""

    level: int
    cover: Cover

    def __repr__(self) -> str:
        return f"HierarchyLevel(level={self.level}, communities={len(self.cover)})"


def _relation_graph(graph: Graph, cover: Cover) -> Graph:
    """One node per community; an edge whenever two communities relate."""
    meta = Graph(nodes=range(len(cover)))
    for relation in community_graph(graph, cover):
        meta.add_edge(relation.a, relation.b)
    return meta


def hierarchical_oca(
    graph: Graph,
    levels: int = 2,
    seed: SeedLike = None,
    config: Optional[OCAConfig] = None,
) -> List[HierarchyLevel]:
    """Recursive OCA agglomeration into a community hierarchy.

    Level 0 is OCA's cover of ``graph``.  Level ``k + 1`` runs OCA on the
    *relation graph* of level ``k`` (one meta-node per community, edges
    between overlapping or cross-linked communities) and replaces each
    meta-community by the union of its member communities.  Recursion
    stops early when a level yields a single community or the relation
    graph has no edges left to agglomerate.

    Returns the levels finest-first; ``config`` applies to the level-0
    run (the small meta graphs use defaults with orphan assignment, so
    every community lands in some super-community).
    """
    if levels < 1:
        raise CommunityError(f"levels must be >= 1, got {levels}")
    rng = as_random(seed)
    oca_detector = get_detector("oca")
    base = oca_detector.detect(
        DetectionRequest(
            graph=graph, seed=spawn_seed(rng), params={"config": config}
        )
    )
    hierarchy: List[HierarchyLevel] = [HierarchyLevel(level=0, cover=base.cover)]
    current = base.cover
    for level in range(1, levels):
        if len(current) <= 1:
            break
        meta = _relation_graph(graph, current)
        if meta.number_of_edges() == 0:
            break
        meta_config = OCAConfig(min_community_size=1, assign_orphans=True)
        meta_result = oca_detector.detect(
            DetectionRequest(
                graph=meta, seed=spawn_seed(rng), params={"config": meta_config}
            )
        )
        merged: List[set] = []
        for meta_community in meta_result.cover:
            union: set = set()
            for index in meta_community:
                union |= current[index]
            merged.append(union)
        coarser = Cover(merged)
        if len(coarser) >= len(current):
            break  # no real agglomeration happened; stop cleanly
        hierarchy.append(HierarchyLevel(level=level, cover=coarser))
        current = coarser
    return hierarchy
