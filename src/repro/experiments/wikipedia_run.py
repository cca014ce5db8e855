"""The Section V-B closing experiment: OCA on the Wikipedia-scale graph.

"Finally, we ran OCA on the Wikipedia dataset, and found all relevant
communities in less than 3.25 hours."  The reproduction generates the
synthetic Wikipedia-like graph (:mod:`repro.generators.wikipedia`) and
demonstrates the same property: OCA completes end-to-end, with a bounded
memory footprint, and the runtime is reported so
``benchmarks/bench_wikipedia.py`` can check its growth with size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .._rng import SeedLike, as_random, spawn_seed
from ..communities import overlap_statistics, theta
from ..core import OCAConfig, StagnationHalting
from ..detection import DetectionRequest
from ..detectors import get_detector
from ..generators import WikipediaParams, wikipedia_like_graph

__all__ = ["WikipediaRunResult", "run_wikipedia"]


@dataclass
class WikipediaRunResult:
    """Outcome of the large-graph end-to-end run."""

    nodes: int
    edges: int
    communities: int
    generation_seconds: float
    oca_seconds: float
    theta_vs_topics: float
    mean_memberships: float

    def render(self) -> str:
        """One-paragraph text report."""
        return (
            f"wikipedia-like graph: {self.nodes} nodes, {self.edges} edges\n"
            f"generation: {self.generation_seconds:.2f}s, "
            f"OCA: {self.oca_seconds:.2f}s\n"
            f"communities found: {self.communities} "
            f"(mean memberships {self.mean_memberships:.2f})\n"
            f"Theta against planted topics: {self.theta_vs_topics:.3f}"
        )


def run_wikipedia(
    n: int = 20000,
    params: Optional[WikipediaParams] = None,
    patience: int = 30,
    seed: SeedLike = None,
) -> WikipediaRunResult:
    """Generate the graph and run OCA end-to-end.

    ``patience`` feeds the stagnation halting criterion: on a graph this
    size full coverage is not the goal (exactly the paper's stance), so
    OCA stops after that many consecutive runs without a new community.
    """
    rng = as_random(seed)
    if params is None:
        params = WikipediaParams(n=n)
    start = time.perf_counter()
    instance = wikipedia_like_graph(params, seed=spawn_seed(rng))
    generation_seconds = time.perf_counter() - start

    config = OCAConfig(
        seeding="uncovered",
        halting=StagnationHalting(patience=patience),
        merge_threshold=0.75,
        assign_orphans=False,
    )
    result = get_detector("oca").detect(
        DetectionRequest(
            graph=instance.graph,
            seed=spawn_seed(rng),
            params={"config": config},
        )
    )
    quality = (
        theta(instance.topics, result.cover) if len(result.cover) else 0.0
    )
    stats = overlap_statistics(result.cover)
    return WikipediaRunResult(
        nodes=instance.graph.number_of_nodes(),
        edges=instance.graph.number_of_edges(),
        communities=len(result.cover),
        generation_seconds=generation_seconds,
        oca_seconds=result.elapsed_seconds,
        theta_vs_topics=quality,
        mean_memberships=stats["mean_memberships"],
    )


if __name__ == "__main__":
    print(run_wikipedia(n=5000, seed=0).render())
