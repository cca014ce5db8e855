"""Shared-memory shipping vs pickle, and the batched/coalesced serve path.

Three measurements per LFR size (same family and seeds as bench_csr /
bench_serving):

* **ship** — what it costs to put the compiled graph into one worker:
  a pickle roundtrip (the per-worker cost of pickle shipping) vs a
  shared-memory attach (:func:`~repro.graph.shm.attach_shared`, an
  O(1) ``mmap`` after a one-time export).  The attach time should be
  flat across graph sizes while the pickle cost grows with ``n + m``.
* **fidelity** — covers for the same (graph, seed, batch_size) are
  byte-identical on a ``fork`` pool (the context is inherited, pickle
  shipping) and on a ``spawn`` pool (shm shipping).
* **serve** — warm requests/second through the full serving stack
  (SessionManager + ServingQueue), both configurations on a process
  pool of two workers: per-task dispatch without coalescing
  (``batch_size=1``, ``coalesce=1`` — the pre-ISSUE-7 behaviour) vs
  batched execution with coalescing (``batch_size=8``, ``coalesce=8``).
  The same search workload crosses the process boundary in far fewer
  dispatches, so the gain holds even on a single-CPU host.

Also runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_shm.py              # full sweep
    PYTHONPATH=src python benchmarks/bench_shm.py --smoke      # CI-sized

The full sweep (n in {2000, 6000, 20000}) writes machine-readable
results to ``BENCH_shm.json`` at the repository root; ``--smoke`` runs
one small size and writes nothing, so CI can exercise the script
without touching tracked files.  Either way the run asserts that no
``/dev/shm`` segment outlives its owner.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pickle
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import (
    DetectionRequest,
    ServeRequest,
    ServingQueue,
    SessionManager,
    get_detector,
)
from repro.core.vector_space import admissible_c
from repro.generators import LFRParams, lfr_graph
from repro.graph import compile_graph
from repro.graph import shm as shm_module
from repro.graph.shm import (
    SEGMENT_PREFIX,
    attach_shared,
    export_shared,
    live_segment_names,
    shm_available,
)

FULL_SIZES = (2000, 6000, 20000)
SMOKE_SIZES = (300,)

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_shm.json"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _dev_shm_entries() -> "set[str]":
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        }
    except FileNotFoundError:  # non-Linux
        return set()


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
    compile_seconds: float
    # ship: per-worker cost of each shipping mode
    pickle_ship_bytes: int
    pickle_ship_seconds: float
    export_seconds: float
    descriptor_bytes: int
    attach_seconds: float
    attach_speedup: float
    # fidelity
    covers_identical: bool
    # serve: warm throughput, baseline vs batched + coalesced
    requests: int
    rps_baseline: float
    rps_tuned: float
    rps_gain: float
    coalesced: int
    segments_clean: bool


def _timed_attach(descriptor, repeats: int = 5) -> float:
    """Best-of attach time with the per-process cache defeated.

    The worker-side cache would make every attach after the first a
    dict hit; clearing it measures what a fresh worker process pays.
    """
    best = float("inf")
    for _ in range(repeats):
        with shm_module._ATTACHED_LOCK:
            shm_module._ATTACHED.clear()
        start = time.perf_counter()
        attach_shared(descriptor)
        best = min(best, time.perf_counter() - start)
    with shm_module._ATTACHED_LOCK:
        shm_module._ATTACHED.clear()
    return best


def _detect_cover(graph, seed, c, start_method, batch_size):
    """OCA's cover on a 2-worker pool started by ``start_method``:
    ``fork`` ships the context by pickle, any other method by shm."""
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(start_method, force=True)
    try:
        result = get_detector("oca").detect(
            DetectionRequest(
                graph=graph,
                seed=seed,
                params={"c": c},
                workers=2,
                batch_size=batch_size,
            )
        )
    finally:
        multiprocessing.set_start_method(previous, force=True)
    expected = "pickle" if start_method == "fork" else "shm"
    if result.engine_stats.shipping != expected:
        raise AssertionError(
            f"a {start_method} pool shipped {result.engine_stats.shipping}, "
            f"expected {expected}"
        )
    return result.cover


def _serve_rps(graph, seed, c, requests, *, workers, batch_size, coalesce):
    """Warm requests/second through manager + queue; one warm-up serve."""
    manager = SessionManager(
        max_sessions=2, workers=workers, batch_size=batch_size
    )
    queue = ServingQueue(
        manager,
        workers=2,
        max_depth=max(64, requests + 1),
        coalesce=coalesce,
        registry=manager.registry,
    )
    try:
        queue.submit(
            ServeRequest(graph=graph, seed=seed, params={"c": c})
        ).result()
        start = time.perf_counter()
        futures = [
            queue.submit(
                ServeRequest(graph=graph, seed=seed, params={"c": c})
            )
            for _ in range(requests)
        ]
        for future in futures:
            future.result()
        wall = time.perf_counter() - start
        coalesced = queue.stats.coalesced
    finally:
        queue.close()
        manager.close()
    return requests / wall if wall else float("inf"), coalesced


def measure_size(n: int, seed: int, requests: int, echo=print) -> SizeResult:
    graph = build_graph(n, seed)
    m = graph.number_of_edges()
    echo(f"-- LFR n={graph.number_of_nodes()}, m={m}")

    start = time.perf_counter()
    compiled = compile_graph(graph)
    compile_seconds = time.perf_counter() - start
    c = admissible_c(graph, seed=seed)

    # -- ship: pickle roundtrip vs export-once + O(1) attach ----------
    start = time.perf_counter()
    blob = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(blob)
    pickle_ship_seconds = time.perf_counter() - start
    pickle_ship_bytes = len(blob)

    start = time.perf_counter()
    segments = export_shared(compiled)
    export_seconds = time.perf_counter() - start
    descriptor_bytes = len(
        pickle.dumps(segments.descriptor, protocol=pickle.HIGHEST_PROTOCOL)
    )
    attach_seconds = _timed_attach(segments.descriptor)
    segments.close()
    attach_speedup = (
        pickle_ship_seconds / attach_seconds if attach_seconds else float("inf")
    )
    echo(
        f"   ship: pickle {pickle_ship_bytes}B / "
        f"{pickle_ship_seconds * 1000:.2f}ms vs shm descriptor "
        f"{descriptor_bytes}B, attach {attach_seconds * 1e6:.0f}us "
        f"(export {export_seconds * 1000:.2f}ms once) "
        f"| attach speedup x{attach_speedup:.1f}"
    )

    # -- fidelity: shipping never changes the cover -------------------
    covers_identical = _detect_cover(
        graph, seed, c, "fork", 8
    ) == _detect_cover(graph, seed, c, "spawn", 8)
    if not covers_identical:
        raise AssertionError(
            f"shipping contract violated at n={n}: covers differ"
        )
    echo(f"   fidelity: pickle vs shm covers identical: {covers_identical}")

    # -- serve: per-task dispatch baseline vs batched + coalesced -----
    rps_baseline, _ = _serve_rps(
        graph, seed, c, requests, workers=2, batch_size=1, coalesce=1
    )
    rps_tuned, coalesced = _serve_rps(
        graph, seed, c, requests, workers=2, batch_size=8, coalesce=8
    )
    rps_gain = rps_baseline and rps_tuned / rps_baseline
    echo(
        f"   serve ({requests} warm requests): baseline {rps_baseline:.2f} "
        f"rps vs batched+coalesced {rps_tuned:.2f} rps "
        f"(x{rps_gain:.2f}, {coalesced} coalesced)"
    )

    segments_clean = not _dev_shm_entries() and not live_segment_names()
    if not segments_clean:
        raise AssertionError(
            f"/dev/shm leak at n={n}: {_dev_shm_entries()} "
            f"live={live_segment_names()}"
        )
    return SizeResult(
        n=graph.number_of_nodes(),
        m=m,
        compile_seconds=compile_seconds,
        pickle_ship_bytes=pickle_ship_bytes,
        pickle_ship_seconds=pickle_ship_seconds,
        export_seconds=export_seconds,
        descriptor_bytes=descriptor_bytes,
        attach_seconds=attach_seconds,
        attach_speedup=attach_speedup,
        covers_identical=covers_identical,
        requests=requests,
        rps_baseline=rps_baseline,
        rps_tuned=rps_tuned,
        rps_gain=rps_gain,
        coalesced=coalesced,
        segments_clean=segments_clean,
    )


def run_bench(
    sizes=FULL_SIZES, seed: int = 2, requests: int = 4, echo=print
) -> List[SizeResult]:
    if not shm_available():
        raise RuntimeError("shared memory unavailable on this platform")
    echo(
        f"shm shipping + batched/coalesced serving bench: sizes "
        f"{list(sizes)}, {_available_cpus()} CPU(s)"
    )
    return [
        measure_size(n, seed=seed, requests=requests, echo=echo)
        for n in sizes
    ]


def write_json(results: List[SizeResult], path: Path = _JSON_PATH) -> None:
    payload = {
        "benchmark": "bench_shm",
        "description": (
            "compiled-graph shipping (pickle roundtrip vs shared-memory "
            "attach), shipping fidelity, and warm serving throughput "
            "for the sequential baseline vs batch_size=8/workers=2 with "
            "same-fingerprint coalescing"
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
def test_shm_attach_beats_pickle_ship(benchmark):
    from conftest import run_once

    lines: List[str] = []
    results = run_once(
        benchmark, run_bench, sizes=(2000,), echo=lines.append
    )
    print()
    for line in lines:
        print(line)
    assert results[0].covers_identical
    assert results[0].segments_clean
    assert results[0].attach_speedup >= 10


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small size, no JSON output (CI smoke check)",
    )
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument(
        "--requests",
        type=int,
        default=4,
        help="warm serving requests per throughput measurement",
    )
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
    results = run_bench(sizes=sizes, seed=args.seed, requests=args.requests)
    if not args.smoke:
        write_json(results)
        print(f"wrote {_JSON_PATH}")
    slow = [r for r in results if r.n >= 20000 and r.attach_speedup < 10]
    if slow:
        print(
            "WARNING: shm attach under 10x pickle ship at "
            + ", ".join(f"n={r.n} (x{r.attach_speedup:.1f})" for r in slow),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
