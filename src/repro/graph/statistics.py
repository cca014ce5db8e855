"""Descriptive statistics of graphs.

Used by the dataset-inventory experiment (Table I of the paper, ``repro
info``) and by the LFR generator, which reports the realised mean degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .graph import Graph
from .traversal import connected_components

__all__ = ["GraphSummary", "summarize", "density", "average_degree"]


@dataclass(frozen=True)
class GraphSummary:
    """A compact structural fingerprint of a graph."""

    nodes: int
    edges: int
    min_degree: int
    max_degree: int
    average_degree: float
    density: float
    components: int
    largest_component: int

    def as_row(self) -> Dict[str, object]:
        """The summary as a flat dict — one row of Table I."""
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "average_degree": round(self.average_degree, 3),
            "density": round(self.density, 6),
            "components": self.components,
            "largest_component": self.largest_component,
        }


def summarize(graph: Graph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    degrees = [graph.degree(node) for node in graph.nodes()]
    components = connected_components(graph)
    n = graph.number_of_nodes()
    return GraphSummary(
        nodes=n,
        edges=graph.number_of_edges(),
        min_degree=min(degrees) if degrees else 0,
        max_degree=max(degrees) if degrees else 0,
        average_degree=average_degree(graph),
        density=density(graph),
        components=len(components),
        largest_component=len(components[0]) if components else 0,
    )


def density(graph: Graph) -> float:
    """Edge density ``2m / (n (n-1))``; zero for graphs with < 2 nodes."""
    n = graph.number_of_nodes()
    if n < 2:
        return 0.0
    return 2.0 * graph.number_of_edges() / (n * (n - 1))


def average_degree(graph: Graph) -> float:
    """Mean degree ``2m / n``; zero for the empty graph."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    return 2.0 * graph.number_of_edges() / n
