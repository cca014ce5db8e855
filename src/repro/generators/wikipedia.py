"""A Wikipedia-like large graph — the substitution for the paper's dataset.

The paper's final experiment runs OCA on the 2010 Wikipedia link graph
(16,986,429 nodes, 176,454,501 edges) to demonstrate that the algorithm
completes on a real, heavy-tailed, web-scale network.  That snapshot is
not redistributable and would not fit this environment, so — per the
documented substitution policy — we generate a synthetic graph with the
structural properties the experiment actually exercises:

* a heavy-tailed degree distribution (preferential-attachment backbone,
  the classic Barabási–Albert process);
* planted *overlapping* topic clusters (articles belong to one or more
  topics; intra-topic links are denser), so community search has genuine
  structure to find;
* arbitrary scale via ``n`` (``benchmarks/bench_wikipedia.py`` runs
  laptop-friendly sizes and asserts that runtime grows boundedly).

The returned instance carries the planted topic cover, allowing quality
spot-checks on top of the pure timing experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from .._rng import SeedLike, as_random
from ..communities import Cover
from ..errors import GeneratorError
from ..graph import Graph

__all__ = ["WikipediaParams", "WikipediaInstance", "wikipedia_like_graph"]


@dataclass(frozen=True)
class WikipediaParams:
    """Parameters of the synthetic Wikipedia-like graph.

    Attributes
    ----------
    n:
        Number of articles (nodes).
    attachment:
        Edges each new node brings in the preferential-attachment
        backbone (the BA ``m`` parameter).
    topics:
        Number of planted topic clusters; ``None`` (default) derives
        ``max(4, n // 200)`` so the *size* of a topic stays constant as
        ``n`` grows — the property that makes the scaling experiment
        meaningful (otherwise larger instances have structurally
        different, ever-larger topics).
    topic_memberships:
        Mean topics per article (>= 1; fractional values mean a random
        mixture of 1- and 2-topic articles, etc.).
    intra_topic_degree:
        Extra intra-topic edges contributed per article on average.
    """

    n: int = 20000
    attachment: int = 4
    topics: Optional[int] = None
    topic_memberships: float = 1.3
    intra_topic_degree: float = 3.0

    def __post_init__(self) -> None:
        if self.n < 10:
            raise GeneratorError(f"n must be >= 10, got {self.n}")
        if not 1 <= self.attachment < self.n:
            raise GeneratorError(
                f"attachment must be in [1, n), got {self.attachment}"
            )
        if self.topics is None:
            object.__setattr__(self, "topics", max(4, self.n // 200))
        if self.topics < 1:
            raise GeneratorError(f"topics must be >= 1, got {self.topics}")
        if self.topic_memberships < 1.0:
            raise GeneratorError(
                f"topic_memberships must be >= 1, got {self.topic_memberships}"
            )
        if self.intra_topic_degree < 0.0:
            raise GeneratorError(
                f"intra_topic_degree must be >= 0, got {self.intra_topic_degree}"
            )


@dataclass
class WikipediaInstance:
    """The generated graph plus its planted topic cover."""

    graph: Graph
    topics: Cover
    params: WikipediaParams

    def __repr__(self) -> str:
        return (
            f"WikipediaInstance(n={self.graph.number_of_nodes()}, "
            f"m={self.graph.number_of_edges()}, topics={len(self.topics)})"
        )


def wikipedia_like_graph(
    params: WikipediaParams = WikipediaParams(), seed: SeedLike = None
) -> WikipediaInstance:
    """Generate the Wikipedia-like graph.

    Deterministic given ``seed``; node labels are ``0..n-1``.

    The preferential-attachment backbone uses the standard repeated-nodes
    trick: a target list containing every edge endpoint so far, sampled
    uniformly, realises attachment probability proportional to degree in
    O(1) per draw.
    """
    rng = as_random(seed)
    n, m0 = params.n, params.attachment

    graph = Graph(nodes=range(n))
    # Backbone: BA process seeded with a small clique.
    repeated: List[int] = []
    seed_size = m0 + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            graph.add_edge(u, v)
            repeated.append(u)
            repeated.append(v)
    for node in range(seed_size, n):
        targets: Set[int] = set()
        while len(targets) < m0:
            targets.add(rng.choice(repeated))
        for target in targets:
            graph.add_edge(node, target)
            repeated.append(node)
            repeated.append(target)

    # Planted overlapping topics.
    memberships: List[List[int]] = [[] for _ in range(params.topics)]
    for node in range(n):
        count = 1
        extra = params.topic_memberships - 1.0
        while extra > 0.0:
            if rng.random() < min(extra, 1.0):
                count += 1
            extra -= 1.0
        for topic in rng.sample(range(params.topics), min(count, params.topics)):
            memberships[topic].append(node)

    # Densify topics: each article contributes ~intra_topic_degree random
    # intra-topic links.
    for topic_nodes in memberships:
        if len(topic_nodes) < 2:
            continue
        for u in topic_nodes:
            links = int(params.intra_topic_degree)
            if rng.random() < params.intra_topic_degree - links:
                links += 1
            for _ in range(links):
                v = rng.choice(topic_nodes)
                if v != u:
                    graph.add_edge(u, v)

    cover = Cover(nodes for nodes in memberships if nodes)
    return WikipediaInstance(graph=graph, topics=cover, params=params)
