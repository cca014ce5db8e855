"""Command-line interface: ``repro-oca`` / ``python -m repro``.

Subcommands:

``detect``
    Run any registered detector (``oca`` by default; also ``lfk``,
    ``cfinder``, ``cpm``) on an edge-list file and write the cover (one
    community per line) to stdout or a file.  Dispatch goes through the
    detector registry, so downstream algorithms registered with
    :func:`repro.detectors.register_detector` are equally reachable from
    the experiment harness.
``serve``
    The multi-graph serving front-end: read JSONL detection requests
    (stdin or a batch file), dispatch them through a
    :class:`~repro.serving.SessionManager` + bounded
    :class:`~repro.serving.ServingQueue`, and emit one JSON result per
    request with latency and queue-depth annotations (see
    :mod:`repro.serving.service` for both schemas).  With
    ``--listen HOST:PORT`` the same stack is served over TCP instead
    (:mod:`repro.serving.server`): one JSONL stream per connection.
    With ``--http HOST:PORT`` (alone or alongside ``--listen``) the
    stack also serves HTTP/1.1 (:mod:`repro.serving.http`):
    ``GET /health`` readiness, ``GET /metrics`` Prometheus scrapes, and
    ``POST /detect`` for the same JSONL schema.  Both go through one
    admission core (:mod:`repro.serving.admission`): round-robin
    admission across clients, per-client in-flight caps
    (``--client-inflight``), and ``deadline_seconds`` request shedding.
    ``--stats-interval`` prints a periodic one-line stats summary to
    stderr, and each front-end prints its exit summary on shutdown.
``experiment``
    Regenerate one paper artefact (table1, figure2 .. figure6,
    wikipedia) and print its data table.
``info``
    Summarise a graph file (the Table-I statistics).
``generate``
    Emit a benchmark instance (lfr / daisy / wikipedia) as an edge-list
    file, optionally with its planted ground-truth cover.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from . import __version__
from .communities import write_cover
from .experiments import (
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
    run_wikipedia,
    run_algorithm,
)
from .core.vector_space import DEFAULT_SPECTRAL_SOLVER, SPECTRAL_SOLVERS
from .graph import read_edge_list, summarize

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-oca",
        description=(
            "Overlapping Community Search (ICDE 2010) reproduction: run OCA "
            "and baselines, regenerate the paper's tables and figures."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    detect = subparsers.add_parser(
        "detect", help="find overlapping communities in an edge-list file"
    )
    detect.add_argument("graph", help="path to an edge-list file (u v per line)")
    detect.add_argument(
        "--algorithm",
        type=str.lower,
        choices=["oca", "lfk", "cfinder", "cpm", "modularity_greedy"],
        default="oca",
        help=(
            "which registered detector to run (default: oca); "
            "case-insensitive, so the paper's labels OCA/LFK/CFinder "
            "work too"
        ),
    )
    detect.add_argument("--seed", type=int, default=None, help="random seed")
    detect.add_argument(
        "--output", default=None, help="write the cover here instead of stdout"
    )
    detect.add_argument(
        "--raw",
        action="store_true",
        help="skip post-processing (merging and orphan assignment)",
    )
    detect.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker-pool size for the execution engine (0 = one per CPU; "
            "the cover is identical for any value; pair with --batch-size "
            "to actually keep the workers busy)"
        ),
    )
    detect.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "local searches dispatched per batch; 1 (default) is exactly "
            "the sequential algorithm, a few times --workers enables "
            "speculative parallelism"
        ),
    )
    detect.add_argument(
        "--spectral-solver",
        choices=list(SPECTRAL_SOLVERS),
        default=DEFAULT_SPECTRAL_SOLVER,
        help=(
            "how the admissible c is resolved on a spectral-cache miss: "
            "scipy's Lanczos (eigsh, the default) or the paper's power "
            "method, ten to a hundred times slower; the two agree to "
            "about 1e-4, so a cover can differ between them"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "serve JSONL detection requests over many graphs through a "
            "session manager and a bounded request queue"
        ),
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve over TCP instead of stdin/stdout: bind here (port 0 "
            "picks a free port), speak the same JSONL request/response "
            "schema per connection, round-robin admission across "
            "clients; stop with Ctrl-C or SIGTERM"
        ),
    )
    serve.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help=(
            "also (or instead) serve HTTP/1.1 here (port 0 picks a free "
            "port): GET /health readiness, GET /metrics Prometheus "
            "scrape, POST /detect with a JSONL body — same schema, "
            "byte-identical covers; runnable alongside --listen on one "
            "shared session stack"
        ),
    )
    serve.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "socket/HTTP modes: print a one-line serving-stats summary "
            "to stderr every SECONDS while running"
        ),
    )
    serve.add_argument(
        "--client-inflight",
        type=int,
        default=8,
        help=(
            "per-client (per-connection) cap on outstanding requests: "
            "a socket line beyond it is answered ok:false \"queue full\" "
            "immediately, an HTTP body line waits for a free slot"
        ),
    )
    serve.add_argument(
        "--requests",
        default=None,
        help="JSONL request file (default: read stdin until EOF)",
    )
    serve.add_argument(
        "--output",
        default=None,
        help="write JSON responses here, one per line (default: stdout)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=4,
        help="bounded LRU size: warm graph sessions kept resident",
    )
    serve.add_argument(
        "--max-memory-mb",
        type=float,
        default=None,
        help=(
            "additional memory budget for resident sessions' compiled "
            "arrays and label tables (LRU eviction while over)"
        ),
    )
    serve.add_argument(
        "--queue-workers",
        type=int,
        default=2,
        help="dispatch threads draining the request queue",
    )
    serve.add_argument(
        "--max-depth",
        type=int,
        default=64,
        help="bounded queue depth; submissions beyond it see backpressure",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker-pool size of every session (0 = one per CPU; the "
            "cover is identical for any value, and requests choose "
            "their batch size in params)"
        ),
    )
    serve.add_argument(
        "--coalesce",
        type=int,
        default=8,
        help=(
            "max queued same-fingerprint requests one queue worker "
            "serves per dispatch group (1 disables coalescing; purely "
            "a scheduling knob, covers are unchanged)"
        ),
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        metavar="PATH",
        help=(
            "warm-start persistence: directory where compiled graphs "
            "(CSR arrays, labels, spectral cache) are saved keyed by "
            "fingerprint and loaded back — mmap'd, checksum-verified — "
            "instead of recompiling; a restarted server pre-warms its "
            "most-recently-used graphs from here"
        ),
    )
    serve.add_argument(
        "--store-limit-bytes",
        type=int,
        default=None,
        help=(
            "size budget for --store-dir: after each save the store "
            "prunes least-recently-used entries until it fits"
        ),
    )
    serve.add_argument(
        "--store-warm",
        type=int,
        default=None,
        metavar="N",
        help=(
            "pre-warm the N most-recently-used stored graphs at "
            "startup (default: up to --max-sessions; 0 disables)"
        ),
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help=(
            "append one JSON line per structured event (every request, "
            "shed, rejection, eviction, store fallback, server "
            "start/stop) to this file — the durable flight recorder; "
            "events also stay in the in-memory ring GET /debug/events "
            "serves"
        ),
    )
    serve.add_argument(
        "--access-log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "rotate the access log when it would exceed N bytes (the "
            "previous file becomes PATH.1); default: never rotate"
        ),
    )
    serve.add_argument(
        "--event-capacity",
        type=int,
        default=1024,
        metavar="N",
        help=(
            "in-memory event ring size (drop-oldest beyond it, with a "
            "dropped counter); 0 disables the event pipeline entirely"
        ),
    )
    serve.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help=(
            "service-level objectives, comma-separated: latency clauses "
            "'pNN:<seconds>[s]' (read from the latency histogram, which "
            "gains a bucket edge at each target: exact within-target "
            "flag, bucket-interpolated quantile) and "
            "'availability:<percent>' (lifetime error budget from the "
            "response counters) — e.g. 'p99:0.5s,availability:99.9'; "
            "exported as repro_slo_* gauges on /metrics and summarised "
            "by --stats-interval"
        ),
    )
    serve.add_argument(
        "--slow-threshold-seconds",
        type=float,
        default=None,
        metavar="S",
        help=(
            "capture any request at or above S seconds — full trace "
            "spans, engine stats, queue context — in the bounded "
            "worst-N table GET /debug/slow serves (0 captures "
            "everything; default: capture nothing)"
        ),
    )
    serve.add_argument(
        "--slow-capacity",
        type=int,
        default=32,
        metavar="N",
        help="how many slowest requests the /debug/slow table retains",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the end-of-batch summary line on stderr",
    )

    experiment = subparsers.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    experiment.add_argument(
        "artefact",
        choices=[
            "table1",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "wikipedia",
        ],
    )
    experiment.add_argument("--seed", type=int, default=0, help="random seed")

    info = subparsers.add_parser("info", help="summarise a graph file")
    info.add_argument("graph", help="path to an edge-list file")

    generate = subparsers.add_parser(
        "generate", help="emit a benchmark instance as an edge-list file"
    )
    generate.add_argument("family", choices=["lfr", "daisy", "wikipedia"])
    generate.add_argument("--out", required=True, help="edge-list output path")
    generate.add_argument(
        "--truth", default=None, help="also write the planted cover here"
    )
    generate.add_argument("--seed", type=int, default=0, help="random seed")
    generate.add_argument("--n", type=int, default=None, help="graph size")
    generate.add_argument(
        "--mu", type=float, default=0.3, help="LFR mixing parameter"
    )
    generate.add_argument(
        "--flowers", type=int, default=5, help="daisy-tree flower count"
    )

    return parser


def _command_detect(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    run = run_algorithm(
        args.algorithm,
        graph,
        seed=args.seed,
        quality_mode=not args.raw,
        assign_orphans=False,
        workers=args.workers,
        batch_size=args.batch_size,
        spectral_solver=args.spectral_solver,
    )
    if args.output:
        write_cover(run.cover, args.output)
        print(
            f"{args.algorithm}: {len(run.cover)} communities in "
            f"{run.elapsed_seconds:.2f}s -> {args.output}"
        )
    else:
        write_cover(run.cover, sys.stdout)
    return 0


def _parse_listen(value: str, flag: str = "--listen"):
    host, _, port_text = value.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(
            f"{flag} expects HOST:PORT, got {value!r}"
        )
    return host, int(port_text)


def _stats_line(service) -> str:
    """One stderr line of live serving stats (the --stats-interval tick)."""
    queue_stats = service.queue.stats
    manager_stats = service.manager.stats
    line = (
        f"stats: queue depth={service.queue.depth} "
        f"submitted={queue_stats.submitted} "
        f"completed={queue_stats.completed} failed={queue_stats.failed} "
        f"rejected={queue_stats.rejected} expired={queue_stats.expired} "
        f"coalesced={queue_stats.coalesced} "
        f"(admission={queue_stats.expired_admission} "
        f"queue={queue_stats.expired_queue}) | "
        f"sessions resident={len(service.manager)} "
        f"hits={manager_stats.hits} misses={manager_stats.misses} "
        f"evictions={manager_stats.evictions} "
        f"hit_rate={manager_stats.hit_rate:.2f} "
        f"memory={service.manager.memory_bytes()}B"
    )
    store = getattr(service, "store", None)
    if store is not None:
        store_stats = store.stats
        line += (
            f" | store hits={store_stats.hits} "
            f"misses={store_stats.misses} saves={store_stats.saves} "
            f"bytes={store.total_bytes()}B"
        )
    slo = getattr(service, "slo", None)
    if slo is not None:
        line += " | " + slo.summary()
    return line


def _service_kwargs(args: argparse.Namespace, max_memory_bytes) -> Dict[str, Any]:
    """The :class:`~repro.serving.ServingService` keywords ``serve`` maps
    its options to, for the stream and the network paths alike."""
    return dict(
        max_sessions=args.max_sessions,
        max_memory_bytes=max_memory_bytes,
        queue_workers=args.queue_workers,
        max_depth=args.max_depth,
        coalesce=args.coalesce,
        workers=args.workers,
        store_dir=args.store_dir,
        store_limit_bytes=args.store_limit_bytes,
        store_warm=args.store_warm,
        event_capacity=args.event_capacity,
        access_log_path=args.access_log,
        access_log_max_bytes=args.access_log_max_bytes,
        slo=args.slo,
        slow_threshold_seconds=args.slow_threshold_seconds,
        slow_capacity=args.slow_capacity,
    )


def _command_serve_net(args: argparse.Namespace, max_memory_bytes) -> int:
    """Network serving: a TCP (--listen) and/or HTTP (--http) front-end.

    Both front-ends share one :class:`~repro.serving.ServingService` —
    one session manager, one bounded queue, one metrics registry — so a
    mixed deployment (JSONL streams for clients, HTTP for operators and
    scrapers) still amortises warm sessions across all traffic.
    """
    import asyncio
    import signal

    from .serving import HttpServer, ServingServer, ServingService

    service = ServingService(**_service_kwargs(args, max_memory_bytes))
    servers = []
    if args.listen is not None:
        host, port = _parse_listen(args.listen, "--listen")
        servers.append(
            (
                "listening on",
                ServingServer(
                    service=service,
                    host=host,
                    port=port,
                    max_inflight_per_client=args.client_inflight,
                ),
            )
        )
    if args.http is not None:
        host, port = _parse_listen(args.http, "--http")
        servers.append(
            (
                "http listening on",
                HttpServer(
                    service=service,
                    host=host,
                    port=port,
                    max_inflight_per_client=args.client_inflight,
                ),
            )
        )

    async def _stats_loop() -> None:
        while True:
            await asyncio.sleep(args.stats_interval)
            print(_stats_line(service), file=sys.stderr, flush=True)

    async def _main() -> None:
        # SIGTERM stops the server as Ctrl-C does: the main task is
        # cancelled, the finally below drains every front-end, and the
        # service then closes, joining pool workers before any graph
        # export directory is removed.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        for banner, server in servers:
            await server.start()
            print(
                f"{banner} {server.host}:{server.port}",
                file=sys.stderr,
                flush=True,
            )
        stats_task = (
            asyncio.ensure_future(_stats_loop())
            if args.stats_interval is not None and args.stats_interval > 0
            else None
        )
        try:
            await asyncio.gather(
                *(server.wait_stopped() for _, server in servers)
            )
        finally:
            if stats_task is not None:
                stats_task.cancel()
            for _, server in servers:
                await server.stop()

    try:
        asyncio.run(_main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        service.close()
    if not args.quiet:
        for _, server in servers:
            stats = server.stats
            print(
                f"{server.kind} served {stats.responses} response(s) to "
                f"{stats.clients_total} "
                f"client(s): {stats.ok} ok, {stats.failed} failed "
                f"({stats.queue_full_rejections} queue-full, "
                f"{stats.deadline_expired} past deadline)",
                file=sys.stderr,
            )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serving import serve_stream

    max_memory_bytes = (
        None
        if args.max_memory_mb is None
        else int(args.max_memory_mb * 1024 * 1024)
    )

    if args.listen is not None or args.http is not None:
        return _command_serve_net(args, max_memory_bytes)

    def run(input_stream, output_stream):
        return serve_stream(
            input_stream, output_stream, **_service_kwargs(args, max_memory_bytes)
        )

    if args.requests is not None:
        with open(args.requests, "r", encoding="utf-8") as input_stream:
            if args.output is not None:
                with open(args.output, "w", encoding="utf-8") as output_stream:
                    summary = run(input_stream, output_stream)
            else:
                summary = run(input_stream, sys.stdout)
    else:
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as output_stream:
                summary = run(sys.stdin, output_stream)
        else:
            summary = run(sys.stdin, sys.stdout)
    if not args.quiet:
        line = (
            "served {requests} request(s): {ok} ok, {failed} failed | "
            "sessions {sessions_resident} resident, {session_hits} hits / "
            "{session_misses} misses / {evictions} evictions | "
            "latency mean {mean_latency_seconds:.3f}s max "
            "{max_latency_seconds:.3f}s | peak queue depth "
            "{peak_queue_depth} | {wall_seconds:.3f}s wall".format(**summary)
        )
        if "store_hits" in summary:
            line += (
                " | store {store_hits} hits / {store_misses} misses / "
                "{store_saves} saves, {store_bytes}B".format(**summary)
            )
        print(line, file=sys.stderr)
    return 0 if summary["failed"] == 0 else 1


def _command_experiment(args: argparse.Namespace) -> int:
    runners = {
        "table1": lambda: run_table1(seed=args.seed).render(),
        "figure2": lambda: run_figure2(seed=args.seed).render(),
        "figure3": lambda: run_figure3(seed=args.seed).render(),
        "figure4": lambda: run_figure4(seed=args.seed).render(),
        "figure5": lambda: run_figure5(seed=args.seed).render(),
        "figure6": lambda: run_figure6(seed=args.seed).render(),
        "wikipedia": lambda: run_wikipedia(n=5000, seed=args.seed).render(),
    }
    print(runners[args.artefact]())
    return 0


def _command_info(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    for key, value in summarize(graph).as_row().items():
        print(f"{key}: {value}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from .generators import (
        DaisyParams,
        LFRParams,
        WikipediaParams,
        daisy_tree,
        lfr_graph,
        wikipedia_like_graph,
    )
    from .graph import write_edge_list

    if args.family == "lfr":
        params = LFRParams(n=args.n or 1000, mu=args.mu)
        instance = lfr_graph(params, seed=args.seed)
        graph, truth = instance.graph, instance.communities
    elif args.family == "daisy":
        instance = daisy_tree(flowers=args.flowers, seed=args.seed)
        graph, truth = instance.graph, instance.communities
    else:
        params = WikipediaParams(n=args.n or 20000)
        instance = wikipedia_like_graph(params, seed=args.seed)
        graph, truth = instance.graph, instance.topics
    write_edge_list(graph, args.out)
    message = (
        f"{args.family}: {graph.number_of_nodes()} nodes, "
        f"{graph.number_of_edges()} edges -> {args.out}"
    )
    if args.truth:
        write_cover(truth, args.truth)
        message += f" (truth: {len(truth)} communities -> {args.truth})"
    print(message)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "detect": _command_detect,
        "serve": _command_serve,
        "experiment": _command_experiment,
        "info": _command_info,
        "generate": _command_generate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
