#!/usr/bin/env python
"""Social circles: overlapping communities in a real social network.

The paper's motivation: "a person probably belongs to the communities
representing his group of friends, job partners, family, etc."  This
example runs OCA on Zachary's karate club — the canonical small social
network — and contrasts the overlapping cover with the non-overlapping
partition a modularity method (Newman fast greedy, the paper's reference
[11]) produces.  The members OCA places in both communities are exactly
the brokers a partition is forced to assign to a single side.

Run:  python examples/social_circles.py
"""

from repro import DetectionRequest, get_detector
from repro.communities import rho, theta
from repro.generators import karate_club


def main() -> None:
    graph, factions = karate_club()
    print("Zachary's karate club: 34 members, 78 friendships")
    print("observed split: two factions (Mr. Hi vs. the officers)\n")

    # --- Overlapping view -------------------------------------------------
    result = get_detector("oca").detect(
        DetectionRequest(
            graph=graph, seed=0, params={"assign_orphans": True}
        )
    )
    print(f"OCA found {len(result.cover)} overlapping communities")
    for index, community in enumerate(result.cover):
        best = max(rho(community, f) for f in factions)
        print(f"  community {index}: {sorted(community)}")
        print(f"     closest faction rho = {best:.2f}")
    brokers = sorted(result.cover.overlapping_nodes())
    print(f"\nbrokers (members of several circles): {brokers}")
    print(f"Theta against the two-faction split: "
          f"{theta(factions, result.cover):.3f}\n")

    # --- Partitioning view (what the paper moves beyond) -------------------
    cnm = get_detector("modularity_greedy").detect(DetectionRequest(graph=graph))
    partition = cnm.cover
    print(f"Newman greedy modularity: {len(partition)} disjoint blocks "
          f"(Q = {cnm.stats['modularity']:.3f})")
    print("a partition cannot place any member in two circles: "
          f"overlapping nodes = {sorted(partition.overlapping_nodes())}")
    print(f"Theta against the split: {theta(factions, partition):.3f}")


if __name__ == "__main__":
    main()
