"""Ablation — seed-selection strategies (left open by Section IV).

Runs OCA with each built-in strategy on the same LFR instance and
reports quality and run counts.  Shape asserted: uncovered-first (the
default) reaches full coverage in the fewest runs without losing
quality; all strategies land in the same quality band given enough runs.
"""

from conftest import detect, run_once

from repro.communities import theta
from repro.core import OCAConfig, StagnationHalting
from repro.experiments import ascii_table
from repro.generators import LFRParams, lfr_graph


def test_seeding_strategies(benchmark):
    instance = lfr_graph(LFRParams(n=800, mu=0.3), seed=4)

    def sweep():
        results = {}
        for name in ("uncovered", "random", "degree"):
            config = OCAConfig(
                seeding=name,
                halting=StagnationHalting(patience=40, max_runs=4000),
            )
            result = detect("oca", instance.graph, seed=4, config=config)
            results[name] = (
                theta(instance.communities, result.cover),
                result.runs,
                len(result.cover),
            )
        return results

    results = run_once(benchmark, sweep)
    print(
        "\n"
        + ascii_table(
            ["seeding", "Theta", "runs", "#communities"],
            [
                (name, round(v[0], 4), v[1], v[2])
                for name, v in results.items()
            ],
        )
    )

    # All strategies find good structure at mu = 0.3.
    for name, (quality, runs, count) in results.items():
        assert quality >= 0.7, f"{name} fell to {quality:.3f}"
    # Uncovered-first needs the fewest local searches.
    assert results["uncovered"][1] <= results["random"][1]
    assert results["uncovered"][1] <= results["degree"][1]
