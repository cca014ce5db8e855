"""Benchmark-suite configuration.

Every figure/table benchmark runs its experiment exactly once
(``pedantic`` with one round): the experiments are end-to-end sweeps
whose interesting output is the *data table*, not a statistically tight
per-call latency.  Rendered tables are echoed so a ``-s`` run shows the
same series the paper plots.
"""

from __future__ import annotations


def detect(algorithm, graph, seed=None, **params):
    """One detection through the registry, covers in ``graph``'s labels."""
    from repro import DetectionRequest, get_detector

    return get_detector(algorithm).detect(
        DetectionRequest(graph=graph, seed=seed, params=params)
    )


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` through pytest-benchmark exactly once."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
