"""Ablation — the merge post-processing threshold (Section IV).

Sweeps the rho threshold used to merge "too similar" communities on an
LFR instance and reports Theta for each setting.  Shape asserted: some
merging beats none (duplicate local optima pollute the cover), while
over-aggressive merging (very low thresholds) cannot beat the sweet
spot.
"""

from conftest import detect, run_once

from repro.communities import theta
from repro.core import merge_similar
from repro.experiments import ascii_table
from repro.generators import LFRParams, lfr_graph


def test_merge_threshold_sweep(benchmark):
    instance = lfr_graph(LFRParams(n=800, mu=0.35), seed=3)
    raw = detect("oca", instance.graph, seed=3, merge_threshold=None).raw_cover

    def sweep():
        results = {}
        for threshold in (None, 0.2, 0.4, 0.6, 0.8):
            cover = raw if threshold is None else merge_similar(raw, threshold)
            results[threshold] = (theta(instance.communities, cover), len(cover))
        return results

    results = run_once(benchmark, sweep)
    print(
        "\n"
        + ascii_table(
            ["merge threshold", "Theta", "#communities"],
            [
                ("off" if t is None else t, round(v[0], 4), v[1])
                for t, v in results.items()
            ],
        )
    )

    best = max(v[0] for v in results.values())
    # The default (0.4) sits at or near the sweet spot.
    assert results[0.4][0] >= best - 0.03
    # Merging reduces the community count (duplicates exist to merge).
    assert results[0.2][1] <= results[None][1]
