"""Extension benches — Section VI future work (not paper reproductions).

Quantifies the two extensions on the daisy tree:
* hierarchy: recursive OCA agglomeration recovers whole flowers;
* summarization: compression ratio and reconstruction error of the
  overlap-aware summary vs a single-blob summary.
"""

from conftest import detect, run_once

from repro.communities import Cover, theta
from repro.extensions import (
    hierarchical_oca,
    reconstruction_error,
    summarize_graph,
)
from repro.generators import daisy_tree


def test_hierarchy_recovers_flowers(benchmark):
    instance = daisy_tree(flowers=6, seed=11)
    flowers = [
        set(range(offset, offset + 60)) for offset in instance.offsets
    ]

    hierarchy = run_once(benchmark, hierarchical_oca, instance.graph, 3, 11)
    counts = [len(level.cover) for level in hierarchy]
    print(f"\nhierarchy community counts per level: {counts}")

    # Level 0: petals + cores (~5 per flower); level 1: ~flowers.
    assert counts[0] >= 4 * 6
    assert len(hierarchy) >= 2
    flower_quality = theta(Cover(flowers), hierarchy[1].cover)
    print(f"level-1 Theta against whole flowers: {flower_quality:.3f}")
    assert flower_quality >= 0.8


def test_summary_beats_blob_baseline(benchmark):
    instance = daisy_tree(flowers=4, seed=11)
    cover = detect("oca", instance.graph, seed=11).cover

    def build():
        good = summarize_graph(instance.graph, cover)
        blob = summarize_graph(
            instance.graph, Cover([set(instance.graph.nodes())])
        )
        return (
            good.compression_ratio(),
            reconstruction_error(instance.graph, good),
            reconstruction_error(instance.graph, blob),
        )

    ratio, good_error, blob_error = run_once(benchmark, build)
    print(
        f"\ncompression {ratio:.1f}x; reconstruction error "
        f"{good_error:.4f} (communities) vs {blob_error:.4f} (single blob)"
    )
    assert ratio > 10.0
    assert good_error < blob_error / 2
