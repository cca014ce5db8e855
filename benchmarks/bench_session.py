"""Cold vs warm GraphSession on the repeat-detection serving path.

The session layer exists so that a detect loop over one graph pays the
per-graph setup — CSR compilation, the spectral ``c`` power method, and
worker-pool startup — exactly once.  This bench measures that directly:
the first ``session.detect`` (cold: everything from scratch) against the
steady-state calls 2..N (warm: compiled form, cached ``c``, reused
pool), on the LFR family and seeds ``BENCH_csr.json`` records.  It also
verifies the serving contract: warm covers are byte-identical to
one-shot detector calls with the same seeds, and the session stats
confirm the power method ran exactly once.

Also runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_session.py              # full sweep
    PYTHONPATH=src python benchmarks/bench_session.py --smoke      # CI-sized

The full sweep (n in {2000, 6000, 20000}) writes machine-readable
results to ``BENCH_session.json`` at the repository root — the same
record format as ``BENCH_csr.json``, so the benchmark trajectory stays
comparable across perf PRs; ``--smoke`` runs one small size and writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import DetectionRequest, GraphSession, get_detector
from repro.generators import LFRParams, lfr_graph

#: Same sizes as bench_csr (the ISSUE 2 benchmark trajectory).
FULL_SIZES = (2000, 6000, 20000)
SMOKE_SIZES = (300,)

#: Warm detections per size (seeds 1..N after the cold seed 0).
WARM_CALLS = 4

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_session.json"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_graph(n: int, seed: int):
    """The bench_csr LFR family: dense communities, heavy tasks."""
    params = LFRParams(
        n=n,
        mu=0.3,
        average_degree=min(40.0, max(8.0, n / 25)),
        max_degree=min(100, max(20, n // 10)),
        min_community=min(60, max(10, n // 20)),
        max_community=min(120, max(20, n // 10)),
    )
    return lfr_graph(params, seed=seed).graph


@dataclass
class SizeResult:
    """Every measurement for one graph size."""

    n: int
    m: int
    cold_seconds: float
    warm_seconds: float
    warm_speedup: float
    warm_calls: int
    power_method_runs: int
    spectral_cache_hits: int
    pool_reuses: int
    communities: int
    covers_match_one_shot: bool


def measure_size(n: int, seed: int, echo=print) -> SizeResult:
    """Run the cold/warm session comparison for one graph size."""
    graph = build_graph(n, seed)
    m = graph.number_of_edges()
    echo(f"-- LFR n={graph.number_of_nodes()}, m={m}")

    with GraphSession(graph) as session:
        start = time.perf_counter()
        cold = session.detect("oca", seed=0)
        cold_seconds = time.perf_counter() - start

        warm_times: List[float] = []
        warm_results = []
        for call_seed in range(1, WARM_CALLS + 1):
            start = time.perf_counter()
            warm_results.append(session.detect("oca", seed=call_seed))
            warm_times.append(time.perf_counter() - start)
        warm_seconds = min(warm_times)
        stats = session.stats

    # Contract check: the warm path must change nothing but wall-clock.
    # (A fresh graph object so the one-shot run recompiles from scratch,
    # proving the session's caches did not perturb the trajectory.)
    reference_graph = build_graph(n, seed)
    reference = get_detector("oca").detect(
        DetectionRequest(graph=reference_graph, seed=1)
    )
    covers_match = warm_results[0].cover == reference.cover

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    echo(
        f"   cold {cold_seconds:.3f}s | warm {warm_seconds:.3f}s "
        f"(min of {WARM_CALLS}) | speedup x{speedup:.2f} | "
        f"{len(cold.cover)} communities | "
        f"power-method runs: {stats.power_method_runs}, "
        f"cache hits: {stats.spectral_cache_hits}, "
        f"pool reuses: {stats.pool_reuses} | "
        f"warm == one-shot: {covers_match}"
    )
    if stats.power_method_runs != 1:
        raise AssertionError(
            f"serving contract violated at n={n}: power method ran "
            f"{stats.power_method_runs} times across {1 + WARM_CALLS} detects"
        )
    if not covers_match:
        raise AssertionError(
            f"serving contract violated at n={n}: warm session cover "
            "differs from the one-shot detector cover"
        )
    return SizeResult(
        n=graph.number_of_nodes(),
        m=m,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        warm_speedup=speedup,
        warm_calls=WARM_CALLS,
        power_method_runs=stats.power_method_runs,
        spectral_cache_hits=stats.spectral_cache_hits,
        pool_reuses=stats.pool_reuses,
        communities=len(cold.cover),
        covers_match_one_shot=covers_match,
    )


def run_bench(sizes=FULL_SIZES, seed: int = 2, echo=print) -> List[SizeResult]:
    """Measure every size; returns the per-size results."""
    echo(
        f"cold-vs-warm session bench: sizes {list(sizes)}, "
        f"{_available_cpus()} CPU(s), single worker"
    )
    return [measure_size(n, seed=seed, echo=echo) for n in sizes]


def write_json(results: List[SizeResult], path: Path = _JSON_PATH) -> None:
    """Emit the machine-readable benchmark record (BENCH_csr.json format)."""
    payload = {
        "benchmark": "bench_session",
        "description": (
            "GraphSession serving path: first detect (compile + power "
            "method + pool start) vs steady-state detects on cached "
            "artifacts; covers byte-identical to one-shot calls"
        ),
        "family": "lfr",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": _available_cpus(),
        "unix_time": int(time.time()),
        "results": [asdict(result) for result in results],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest-benchmark wrapper
# ----------------------------------------------------------------------
def test_warm_session_skips_graph_setup(benchmark):
    from conftest import run_once

    lines: List[str] = []
    results = run_once(benchmark, run_bench, sizes=(6000,), echo=lines.append)
    print()
    for line in lines:
        print(line)
    assert results[0].power_method_runs == 1
    assert results[0].covers_match_one_shot
    assert results[0].warm_speedup >= 1.5


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small size, no JSON output (CI smoke check)",
    )
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help="override the size sweep",
    )
    args = parser.parse_args(argv)
    if args.sizes:
        sizes = tuple(args.sizes)
    else:
        sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    results = run_bench(sizes=sizes, seed=args.seed)
    if not args.smoke:
        write_json(results)
        print(f"wrote {_JSON_PATH}")
    slow = [r for r in results if r.n >= 6000 and r.warm_speedup < 1.5]
    if slow:
        print(
            "WARNING: warm-session speedup below 1.5x at "
            + ", ".join(f"n={r.n} (x{r.warm_speedup:.2f})" for r in slow),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
