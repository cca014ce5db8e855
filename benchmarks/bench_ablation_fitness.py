"""Ablation — directed Laplacian L vs raw phi as the growth objective.

Section II proves phi is monotone on the subset lattice, so its only
local maximum is the whole graph; Section III introduces L to fix that.
This bench demonstrates the degeneracy empirically: growth under phi
engulfs the entire (connected) graph, growth under L stops at the
planted community.
"""

from conftest import run_once

from repro.core import DirectedLaplacianFitness, PhiFitness, admissible_c, grow_community
from repro.generators import ring_of_cliques
from repro.graph import compile_graph


def test_phi_degenerates_laplacian_does_not(benchmark):
    graph, truth = ring_of_cliques(6, 8)
    c = admissible_c(graph, seed=0)
    # Growth runs on the compiled form; the ring's labels are 0..n-1, so
    # member ids are the node labels.
    compiled = compile_graph(graph)

    def run_both():
        laplacian = grow_community(compiled, [0], DirectedLaplacianFitness(c))
        phi = grow_community(compiled, [0], PhiFitness(c))
        return laplacian, phi

    laplacian, phi = run_once(benchmark, run_both)
    print(
        f"\nL stops at {len(laplacian.members)} nodes; "
        f"phi engulfs {len(phi.members)} of {graph.number_of_nodes()}"
    )

    # L: exactly the planted clique.
    assert laplacian.members == truth[0]
    # phi: the entire graph (the Section-II degeneracy).
    assert phi.members == frozenset(graph.nodes())
