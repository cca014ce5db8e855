"""Connected components.

OCA's orphan assignment gives each community-free component its own
community, and ``repro info`` reports component statistics for every
dataset (Table I).
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

from .graph import Graph, Node

__all__ = ["connected_components"]


def connected_components(graph: Graph) -> List[Set[Node]]:
    """All connected components, largest first.

    One breadth-first pass over the nodes in insertion order: each node
    not yet reached starts a new component, so the cost is O(n + m) however
    many components there are.  Components of equal size keep the order
    of their first node.
    """
    seen: Set[Node] = set()
    components: List[Set[Node]] = []
    for source in graph.nodes():
        if source in seen:
            continue
        component: Set[Node] = {source}
        queue: deque[Node] = deque([source])
        while queue:
            for neighbour in graph.neighbors(queue.popleft()):
                if neighbour not in component:
                    component.add(neighbour)
                    queue.append(neighbour)
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components
