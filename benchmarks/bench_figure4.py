"""Figure 4 — the typical communities each algorithm finds in a daisy.

The paper's drawing: OCA and CFinder recover petals and core as separate
overlapping communities.  Asserted here via the best-match rho of every
planted part.  (At our calibrated daisy parameters LFK also separates
the parts on single flowers; its deficit shows up on full *trees*,
Figure 3.)
"""

from conftest import run_once

from repro.experiments import run_figure4


def test_figure4(benchmark):
    result = run_once(benchmark, run_figure4, seed=1)
    print("\n" + result.render())

    # OCA and CFinder: every petal and the core recovered as its own
    # community (the paper's left panel).
    assert result.separates_parts("OCA", threshold=0.8)
    assert result.separates_parts("CFinder", threshold=0.8)

    # Nobody returned a single whole-flower blob.
    for algorithm, count in result.communities_found.items():
        assert count >= 2, f"{algorithm} returned {count} community"

    # Mean recovery is near-perfect for OCA.
    assert result.mean_rho("OCA") >= 0.9
