#!/usr/bin/env python
"""Building a custom pipeline from the library's components.

OCA is assembled from pluggable pieces — fitness, seeding, halting,
post-processing — all of which the paper leaves open for tuning.  This
example wires them together by hand:

1. compute the admissible c spectrally, then inspect the virtual vector
   representation explicitly (small graph!);
2. grow a single community from a chosen seed and watch the fitness;
3. run the full driver with a custom configuration (degree-biased
   seeding, coverage halting, aggressive merging);
4. write the cover to disk in the standard exchange format.

Run:  python examples/custom_pipeline.py
"""

import io

from repro import DetectionRequest, get_detector
from repro.communities import write_cover
from repro.core import (
    CoverageHalting,
    DirectedLaplacianFitness,
    OCAConfig,
    VirtualVectorRepresentation,
    admissible_c,
    grow_community,
)
from repro.generators import ring_of_cliques
from repro.graph import compile_graph


def main() -> None:
    graph, truth = ring_of_cliques(5, 6)
    print(f"ring of cliques: {graph.number_of_nodes()} nodes, "
          f"{len(truth)} planted cliques\n")

    # --- 1. The vector space (Section II of the paper) --------------------
    c = admissible_c(graph, seed=0)
    representation = VirtualVectorRepresentation(graph, c=c)
    clique = set(truth[0])
    print(f"admissible c = -1/lambda_min = {c:.4f}")
    print(f"phi(clique)       = {representation.phi(clique):.3f}  (closed form)")
    print(f"phi(clique)       = {representation.phi_explicit(clique):.3f}  "
          f"(explicit vectors)\n")

    # --- 2. One greedy local search (Section IV) ---------------------------
    # The kernel works on the compiled graph's dense ids, which are the
    # labels here (ring_of_cliques numbers its nodes 0..n-1).
    fitness = DirectedLaplacianFitness(c)
    growth = grow_community(compile_graph(graph), [0], fitness)
    print(f"growth from node 0: {sorted(growth.members)}")
    print(f"  fitness L = {growth.fitness_value:.3f}, "
          f"{growth.additions} additions, {growth.removals} removals\n")

    # --- 3. The full driver with a custom configuration --------------------
    config = OCAConfig(
        seeding="degree",
        halting=CoverageHalting(target_fraction=1.0, max_runs=500),
        merge_threshold=0.5,
        assign_orphans=True,
    )
    result = get_detector("oca").detect(
        DetectionRequest(graph=graph, seed=0, params={"config": config})
    )
    print(f"custom-config OCA: {len(result.cover)} communities "
          f"in {result.runs} runs")

    # --- 4. Serialise -------------------------------------------------------
    buffer = io.StringIO()
    write_cover(result.cover, buffer)
    print("\ncover in exchange format (one community per line):")
    print(buffer.getvalue())


if __name__ == "__main__":
    main()
