"""Paper-scale data points — Table I sizes, run for real.

The figure benches sweep at laptop-friendly sizes; this bench pins the
two scale claims at the paper's own magnitudes:

* a daisy tree of ~10^5 nodes (Table I: "Daisy, 10^5 nodes") — the
  rightmost point of Figure 3, with quality asserted;
* an LFR instance of 10^4 nodes (the bottom of Table I's LFR range),
  detected and scored end-to-end.
"""

from conftest import detect, run_once

from repro.communities import theta
from repro.core import assign_orphans
from repro.generators import LFRParams, daisy_tree, lfr_graph


def test_daisy_tree_at_paper_scale(benchmark):
    def run():
        instance = daisy_tree(flowers=1667, seed=2)  # 100,020 nodes
        result = detect("oca", instance.graph, seed=2)
        return instance, result

    instance, result = run_once(benchmark, run)
    quality = theta(instance.communities, result.cover)
    print(
        f"\ndaisy tree: {instance.graph.number_of_nodes()} nodes, "
        f"{instance.graph.number_of_edges()} edges; OCA "
        f"{result.elapsed_seconds:.1f}s, {len(result.cover)} communities, "
        f"Theta = {quality:.4f}"
    )
    assert instance.graph.number_of_nodes() >= 100_000
    # Figure 3's claim holds at the paper's full scale.
    assert quality >= 0.9


def test_lfr_at_table1_scale(benchmark):
    def run():
        instance = lfr_graph(LFRParams(n=10_000, mu=0.3), seed=2)
        result = detect("oca", instance.graph, seed=2)
        cover = assign_orphans(instance.graph, result.cover)
        return instance, result, cover

    instance, result, cover = run_once(benchmark, run)
    quality = theta(instance.communities, cover)
    print(
        f"\nLFR: {instance.graph.number_of_nodes()} nodes, "
        f"{instance.graph.number_of_edges()} edges "
        f"(realized mu {instance.realized_mu:.2f}); OCA "
        f"{result.elapsed_seconds:.1f}s, Theta = {quality:.4f}"
    )
    assert instance.graph.number_of_nodes() == 10_000
    # Figure 2's mu = 0.3 regime at 10x the default size.
    assert quality >= 0.9
