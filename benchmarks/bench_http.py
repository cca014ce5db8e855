"""HTTP front-end: warm throughput vs the socket, and registry overhead.

The HTTP server (ISSUE 6) adapts the same serving stack to operators
and HTTP clients; this bench measures what the adaptation costs, on the
established LFR family and seeds (bench_csr / bench_session /
bench_serving / bench_socket):

* **HTTP vs socket warm throughput** — the same warm
  fingerprint-request volume served as one keep-alive ``POST /detect``
  JSONL body and as one pipelined JSONL socket stream: both front-ends
  drain into the identical queue + manager, so the gap is pure
  protocol adaptation;
* **registry overhead** — the same warm volume served through a stack
  wired with a live :class:`~repro.observability.MetricsRegistry` vs
  one wired with :data:`~repro.observability.NULL_REGISTRY` (every
  instrument a no-op): bounds what the bookkeeping costs on the warm
  path (expected well under 5%);
* **fidelity** — HTTP-served covers are byte-identical to
  socket-served covers (the acceptance-matrix contract, re-verified
  end to end over real connections), and a ``GET /metrics`` scrape
  parses and agrees with the queue's own accounting.

Also runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_http.py              # full sweep
    PYTHONPATH=src python benchmarks/bench_http.py --smoke      # CI-sized

The full sweep (n in {2000, 6000, 20000}) writes machine-readable
results to ``BENCH_http.json`` at the repository root — the same
record format as the BENCH_*.json trajectory; ``--smoke`` runs one
small size and writes nothing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import socket
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.generators import LFRParams, lfr_graph
from repro.graph import write_edge_list
from repro.observability import NULL_REGISTRY
from repro.serving import HttpServer, ServingService, start_server_thread

#: Same sizes as bench_csr / bench_session / bench_serving / bench_socket.
FULL_SIZES = (2000, 6000, 20000)
SMOKE_SIZES = (300,)

#: Distinct graphs per size (the resident warm-session set).
GRAPHS = 3

#: Warm requests per throughput phase (HTTP and socket each serve this
#: many, so the phases are comparable).
REQUESTS = 12

#: Warm requests per registry-overhead phase (served in-process through
#: ``handle_lines``, so more volume costs little wall time).
OVERHEAD_REQUESTS = 30

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_http.json"


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
    m_total: int
    graphs: int
    requests: int
    http_seconds: float
    socket_seconds: float
    http_rps: float
    socket_rps: float
    http_vs_socket_ratio: float
    overhead_requests: int
    registry_seconds: float
    null_registry_seconds: float
    registry_overhead_ratio: float
    covers_match_socket: bool
    metrics_scrape_consistent: bool


def _round_robin_payloads(
    fingerprints: List[str], count: int, seed_base: int
) -> List[Dict[str, Any]]:
    return [
        {
            "id": index,
            "fingerprint": fingerprints[index % len(fingerprints)],
            "seed": seed_base + index,
        }
        for index in range(count)
    ]


def _http_request(handle, method: str, path: str, body: bytes = b""):
    connection = http.client.HTTPConnection(
        handle.host, handle.port, timeout=300
    )
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


def _http_detect(handle, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    body = "".join(json.dumps(p) + "\n" for p in payloads).encode("utf-8")
    status, text = _http_request(handle, "POST", "/detect", body)
    assert status == 200, (status, text)
    return [json.loads(line) for line in text.strip().splitlines()]


def _socket_stream(
    host: str, port: int, payloads: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Pipeline a payload list over one connection; responses in order."""
    sock = socket.create_connection((host, port), timeout=300)
    try:
        stream = sock.makefile("rw", encoding="utf-8")
        for payload in payloads:
            stream.write(json.dumps(payload) + "\n")
        stream.flush()
        return [json.loads(stream.readline()) for _ in payloads]
    finally:
        sock.close()


def _parse_metrics(text: str) -> Dict[str, float]:
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


def _measure_overhead(paths: List[str], requests: int, registry=None) -> float:
    """Wall seconds to serve one warm volume through ``handle_lines``.

    In-process (no network) so the measured difference between a live
    registry and the null registry is the bookkeeping itself.
    """
    kwargs: Dict[str, Any] = dict(
        max_sessions=GRAPHS, queue_workers=2, max_depth=64
    )
    if registry is not None:
        kwargs["registry"] = registry
    with ServingService(**kwargs) as service:
        fingerprints = []
        for index, path in enumerate(paths):
            lines = [json.dumps({"id": f"w{index}", "graph": path, "seed": 0})]
            response = next(iter(service.handle_lines(lines)))
            assert response["ok"], response
            fingerprints.append(response["fingerprint"])
        payloads = _round_robin_payloads(fingerprints, requests, seed_base=1)
        lines = [json.dumps(p) for p in payloads]
        start = time.perf_counter()
        responses = list(service.handle_lines(lines))
        elapsed = time.perf_counter() - start
        assert all(r["ok"] for r in responses)
    return elapsed


def measure_size(n: int, seed: int, echo=print) -> SizeResult:
    """Run the HTTP comparison for one graph size."""
    graphs = [build_graph(n, seed + index) for index in range(GRAPHS)]
    m_total = sum(graph.number_of_edges() for graph in graphs)
    echo(f"-- LFR n={n} x{GRAPHS} graphs, m_total={m_total}")

    tmp = tempfile.mkdtemp(prefix="bench_http_")
    paths = []
    for index, graph in enumerate(graphs):
        path = Path(tmp) / f"graph_{index}.edges"
        write_edge_list(graph, path)
        paths.append(str(path))

    # Phase 1: warm HTTP throughput (one keep-alive POST, JSONL body).
    http_service = ServingService(
        max_sessions=GRAPHS, queue_workers=2, max_depth=max(64, REQUESTS)
    )
    with start_server_thread(
        HttpServer, service=http_service
    ) as http_handle:
        warm = _http_detect(
            http_handle,
            [{"id": f"warm-{i}", "graph": p, "seed": 0}
             for i, p in enumerate(paths)],
        )
        assert all(r["ok"] for r in warm)
        fingerprints = [r["fingerprint"] for r in warm]
        payloads = _round_robin_payloads(fingerprints, REQUESTS, seed_base=1)
        start = time.perf_counter()
        http_responses = _http_detect(http_handle, payloads)
        http_seconds = time.perf_counter() - start
        assert all(r["ok"] for r in http_responses)

        # Fidelity + scrape consistency while the stack is warm.
        status, text = _http_request(http_handle, "GET", "/metrics")
        assert status == 200
        samples = _parse_metrics(text)
        queue_stats = http_service.queue.stats
        metrics_consistent = (
            samples.get("repro_queue_submitted_total") == queue_stats.submitted
            and samples.get("repro_queue_completed_total")
            == queue_stats.completed
            and samples.get('repro_service_responses_total{status="ok"}')
            == GRAPHS + REQUESTS
        )
    http_service.close()

    # Phase 2: the same volume as one pipelined socket stream.
    socket_service = ServingService(
        max_sessions=GRAPHS, queue_workers=2, max_depth=max(64, REQUESTS)
    )
    with start_server_thread(
        service=socket_service, max_inflight_per_client=max(64, REQUESTS)
    ) as socket_handle:
        warm_responses = _socket_stream(
            socket_handle.host,
            socket_handle.port,
            [{"id": f"warm-{i}", "graph": p, "seed": 0}
             for i, p in enumerate(paths)],
        )
        assert all(r["ok"] for r in warm_responses)
        socket_fps = [r["fingerprint"] for r in warm_responses]
        socket_payloads = _round_robin_payloads(
            socket_fps, REQUESTS, seed_base=1
        )
        start = time.perf_counter()
        socket_responses = _socket_stream(
            socket_handle.host, socket_handle.port, socket_payloads
        )
        socket_seconds = time.perf_counter() - start
        assert all(r["ok"] for r in socket_responses)
    socket_service.close()

    # Same graphs, same seeds, same serialization helpers: the covers
    # must be byte-identical across front-ends.
    covers_match = [r["communities"] for r in http_responses] == [
        r["communities"] for r in socket_responses
    ]
    if not covers_match:
        raise AssertionError(
            f"HTTP contract violated at n={n}: served covers differ "
            "from the socket front-end's"
        )

    # Phase 3: registry overhead, in-process.
    registry_seconds = _measure_overhead(paths, OVERHEAD_REQUESTS)
    null_seconds = _measure_overhead(
        paths, OVERHEAD_REQUESTS, registry=NULL_REGISTRY
    )
    overhead_ratio = registry_seconds / null_seconds - 1.0

    http_rps = len(http_responses) / http_seconds
    socket_rps = len(socket_responses) / socket_seconds
    echo(
        f"   http {http_rps:.2f} req/s | socket {socket_rps:.2f} req/s "
        f"(x{http_rps / socket_rps:.2f}) | registry overhead "
        f"{overhead_ratio * 100:+.1f}% | covers match: {covers_match} | "
        f"scrape consistent: {metrics_consistent}"
    )
    return SizeResult(
        n=n,
        m_total=m_total,
        graphs=GRAPHS,
        requests=len(http_responses),
        http_seconds=http_seconds,
        socket_seconds=socket_seconds,
        http_rps=http_rps,
        socket_rps=socket_rps,
        http_vs_socket_ratio=http_rps / socket_rps,
        overhead_requests=OVERHEAD_REQUESTS,
        registry_seconds=registry_seconds,
        null_registry_seconds=null_seconds,
        registry_overhead_ratio=overhead_ratio,
        covers_match_socket=covers_match,
        metrics_scrape_consistent=metrics_consistent,
    )


def run_bench(sizes=FULL_SIZES, seed: int = 2, echo=print) -> List[SizeResult]:
    """Measure every size; returns the per-size results."""
    echo(
        f"http serving bench: sizes {list(sizes)}, {GRAPHS} graphs per "
        f"size, {REQUESTS} warm requests, {_available_cpus()} CPU(s)"
    )
    return [measure_size(n, seed=seed, echo=echo) for n in sizes]


def write_json(results: List[SizeResult], path: Path = _JSON_PATH) -> None:
    """Emit the machine-readable benchmark record (BENCH_csr.json format)."""
    payload = {
        "benchmark": "bench_http",
        "description": (
            "HTTP front-end: warm fingerprint-request throughput for one "
            "keep-alive POST /detect JSONL body vs the same volume as a "
            "pipelined socket stream (both into one shared queue + "
            "manager), metrics-registry bookkeeping overhead (live "
            "MetricsRegistry vs NULL_REGISTRY, in-process), HTTP covers "
            "byte-identical to socket covers, and /metrics scrapes "
            "consistent with the queue's own accounting"
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
def test_http_serving_matches_socket_and_registry_stays_cheap(benchmark):
    from conftest import run_once

    lines: List[str] = []
    results = run_once(benchmark, run_bench, sizes=(2000,), echo=lines.append)
    print()
    for line in lines:
        print(line)
    result = results[0]
    assert result.covers_match_socket
    assert result.metrics_scrape_consistent
    # HTTP adaptation must not collapse warm throughput vs the socket.
    assert result.http_vs_socket_ratio >= 0.5
    # The registry's warm-path cost must stay in the noise (the 5%
    # headline bound, asserted loosely so CI timer jitter cannot flake).
    assert result.registry_overhead_ratio < 0.5


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
    over_budget = [r for r in results if r.registry_overhead_ratio > 0.05]
    if over_budget:
        print(
            "WARNING: registry overhead above 5% at "
            + ", ".join(
                f"n={r.n} ({r.registry_overhead_ratio * 100:+.1f}%)"
                for r in over_budget
            ),
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
