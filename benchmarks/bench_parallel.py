"""Wall-clock speedup of the parallel execution engine over serial.

Measures ``oca`` on a generated benchmark graph (LFR by default, daisy
via ``--family``) with the spectral ``c`` resolved once and shared —
the production pattern when many covers of one graph are computed — so
the comparison isolates the engine's local-search loop, the part the
paper calls embarrassingly parallel.

Also runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_parallel.py --workers 4 --n 6000

The script verifies the determinism contract on every run (the process
pool's cover must equal the inline one) and prints a speedup table.  On single-core machines (CI sandboxes, cgroup-limited
containers) no speedup is physically possible; the script detects that
and reports the engine's overhead instead, and the pytest wrapper skips
its speedup assertion rather than fail on hardware that cannot show it.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass
from typing import List, Optional

from repro import DetectionRequest, get_detector
from repro.core.vector_space import admissible_c
from repro.generators import LFRParams, daisy_tree, lfr_graph


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_graph(family: str, n: int, seed: int):
    """A benchmark instance of >= ``n`` nodes with heavyweight tasks.

    The LFR variant uses large, dense communities so each local search
    carries enough compute to amortise process dispatch.
    """
    if family == "lfr":
        params = LFRParams(
            n=n,
            mu=0.3,
            average_degree=40.0,
            max_degree=100,
            min_community=60,
            max_community=120,
        )
        return lfr_graph(params, seed=seed).graph
    if family == "daisy":
        return daisy_tree(flowers=max(1, n // 60), seed=seed).graph
    raise ValueError(f"unknown family {family!r}")


@dataclass
class Measurement:
    label: str
    seconds: float
    cover: object
    summary: str


def measure(graph, seed, c, workers, batch_size) -> Measurement:
    """Time one full ``oca`` execution with the given engine config."""
    start = time.perf_counter()
    result = get_detector("oca").detect(
        DetectionRequest(
            graph=graph,
            seed=seed,
            params={"c": c},
            workers=workers,
            batch_size=batch_size,
        )
    )
    elapsed = time.perf_counter() - start
    label = f"{'inline' if workers == 1 else 'process'} x{workers}"
    return Measurement(
        label=label,
        seconds=elapsed,
        cover=result.cover,
        summary=result.engine_stats.summary(),
    )


def run_bench(
    family: str = "lfr",
    n: int = 6000,
    seed: int = 2,
    workers: int = 4,
    batch_size: int = 32,
    echo=print,
) -> List[Measurement]:
    """Run the inline/process comparison and return measurements."""
    cpus = _available_cpus()
    graph = build_graph(family, n, seed)
    echo(
        f"graph: {family}, {graph.number_of_nodes()} nodes, "
        f"{graph.number_of_edges()} edges; {cpus} CPU(s) available"
    )
    spectral_start = time.perf_counter()
    c = admissible_c(graph, seed=seed)
    echo(
        f"admissible c = {c:.4f} "
        f"(computed once, {time.perf_counter() - spectral_start:.2f}s, "
        "shared by all runs)"
    )

    runs = [
        measure(graph, seed, c, 1, batch_size),
        measure(graph, seed, c, workers, batch_size),
    ]
    baseline = runs[0]
    for run in runs:
        speedup = baseline.seconds / run.seconds if run.seconds else float("inf")
        echo(
            f"{run.label:>12}: {run.seconds:7.3f}s  "
            f"speedup x{speedup:4.2f}  [{run.summary}]"
        )
    identical = all(run.cover == baseline.cover for run in runs)
    echo(f"covers identical inline and on the process pool: {identical}")
    if not identical:
        raise AssertionError("determinism contract violated across worker counts")
    if cpus < 2:
        echo(
            "NOTE: single-CPU machine — parallel speedup is physically "
            "impossible here; the process-pool delta above is pure "
            "engine overhead."
        )
    return runs


# ----------------------------------------------------------------------
# pytest-benchmark wrapper
# ----------------------------------------------------------------------
def test_process_pool_speedup(benchmark):
    from conftest import run_once

    lines: List[str] = []
    runs = run_once(benchmark, run_bench, echo=lines.append)
    print()
    for line in lines:
        print(line)
    serial, process = runs
    if _available_cpus() >= 4:
        assert serial.seconds / process.seconds >= 1.5
    else:
        import pytest

        pytest.skip("needs >= 4 CPUs to demonstrate speedup")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=["lfr", "daisy"], default="lfr")
    parser.add_argument("--n", type=int, default=6000, help="graph size (>= 5000)")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=32)
    args = parser.parse_args(argv)
    run_bench(
        family=args.family,
        n=args.n,
        seed=args.seed,
        workers=args.workers,
        batch_size=args.batch_size,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
