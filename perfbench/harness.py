"""One benchmark run: inputs, set-ups, timed phase(s), cover check.

The untraced run spawns plain ``python -m repro serve --http`` several
times; each server is timed through its set-up and then serves one
timed window.  It reports the end-to-end metrics, scaled to reference
host speed (:mod:`perfbench.calibrate`).  The traced run spawns the server
through ``traced_server.py``: one traced set-up, then an untraced, a
traced and an unpinned phase on the same server (recording is toggled
by signal), which share ``seconds`` between them, and reports the
per-layer ledger.
"""

from __future__ import annotations

import os
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import calibrate, ledger, stats
from .calibrate import REFERENCE_S, Calibrator
from .covers import check, reference_covers
from .server import Client, ServerProcess, client_cpus, scrape, server_cpus
from .workloads import WORKLOADS, Sizes, Workload


#: Kernel bursts timed before each spawn and again after each set-up.
SETUP_BURSTS = 10


@dataclass
class Phase:
    """Records of one closed-loop phase, with its wall time."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    wall: float = 0.0
    exhausted: bool = False

    @property
    def latencies(self) -> List[float]:
        return [record["latency"] for record in self.records]

    @property
    def scaled(self) -> List[float]:
        """Latencies at reference host speed (raw without calibration)."""
        return [record["latency"] * record.get("factor", 1.0) for record in self.records]


def send(client: Client, request, phase: str) -> Dict[str, Any]:
    payload, key = request
    start, end, response = client.detect(payload)
    return {
        "id": payload["id"],
        "key": key,
        "phase": phase,
        "start": start,
        "end": end,
        "latency": end - start,
        "response": response,
    }


def warm_up(server: ServerProcess, workload: Workload, phase: str) -> List[Dict[str, Any]]:
    """Send the workload's warm-up requests, one at a time."""
    client = Client(server.host, server.port)
    try:
        records = [send(client, request, phase) for request in workload.warmup()]
    finally:
        client.close()
    for record in records:
        response = record["response"]
        if response.get("ok"):
            workload.fingerprints.setdefault(record["key"][0], response["fingerprint"])
    return records


def closed_loop(
    server: ServerProcess,
    workload: Workload,
    seconds: float,
    indices: range,
    phase_name: str,
    calibrator: Optional[Calibrator] = None,
) -> Phase:
    """One connection sending its next request only after the previous
    one completes, until ``seconds`` elapse or the phase's ``indices``
    run out.  Past the deadline the phase still finishes its current
    round of ``workload.cycle`` requests, so every window sends the same
    request mix.

    With a ``calibrator``, the client times one kernel burst on its own
    CPU after every answer, while the server is idle, and each record
    gets the factor that scales its latency to reference speed."""
    phase = Phase()
    pending = iter(indices)
    cpus = client_cpus()
    # The main thread keeps off the server's CPU for the phase only; the
    # reference pool that runs after it must still get every CPU.
    before = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    client = Client(server.host, server.port)
    started = time.perf_counter()
    deadline = started + seconds
    try:
        while len(phase.records) % workload.cycle or time.perf_counter() < deadline:
            index = next(pending, None)
            if index is None:
                phase.exhausted = True
                break
            record = send(client, workload.request(index), phase_name)
            if calibrator is not None:
                record["burst"] = calibrator.burst()
            phase.records.append(record)
    finally:
        client.close()
        os.sched_setaffinity(0, before)
    phase.wall = max((r["end"] for r in phase.records), default=started) - started
    if calibrator is not None:
        scale = calibrate.factors([record["burst"] for record in phase.records])
        for record, factor in zip(phase.records, scale):
            record["factor"] = factor
    return phase


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, Any]]
    details: Dict[str, Any]
    problems: List[str]


def _finish(
    workload: Workload, records: List[Dict[str, Any]], details, metrics
) -> RunResult:
    started = time.perf_counter()
    covers, fingerprints = reference_covers(
        (record["key"] for record in records), copies=workload.copies
    )
    problems = check(records, covers, fingerprints)
    details["references_s"] = time.perf_counter() - started
    failed = sum(1 for record in records if not record["ok"])
    return RunResult(
        correct=failed == 0,
        attempted=len(records),
        failed=failed,
        metrics=metrics,
        details=details,
        problems=problems,
    )


def _latency_metrics(workload: Workload, phase: Phase) -> Dict[str, Any]:
    """p50, tail and rate at reference speed; the raw p50 for details."""
    latencies = phase.scaled
    if not latencies:
        raise RuntimeError("the timed phase completed no request")
    value, percentile, count = stats.tail(latencies)
    out = {
        "p50_s": stats.median(latencies),
        "tail_s": value,
        "tail_percentile": percentile,
        "samples": count,
        # One connection back to back: requests over busy seconds.
        "rps": len(latencies) / sum(latencies),
        "raw_p50_s": stats.median(phase.latencies),
        "raw_rps": len(latencies) / phase.wall,
        "mean_factor": sum(latencies) / sum(phase.latencies),
        "inputs_exhausted": phase.exhausted,
    }
    if workload.classes:
        # Each class counts once, however fast it is: p50_s is the mean
        # of the per-class medians.  tail_s stays the tail of every
        # timed request; whole rounds keep the class mix fixed.
        per_class = {}
        for name in workload.classes:
            mine = [
                latency
                for record, latency in zip(phase.records, latencies)
                if workload.class_of(record["key"]) == name
            ]
            if not mine:
                raise RuntimeError(f"the timed phase sent no {name} request")
            per_class[f"p50_{name}_s"] = stats.median(mine)
        out.update(per_class)
        out["p50_s"] = sum(per_class.values()) / len(per_class)
    return out


def untraced_run(
    root: Path, workdir: Path, workload: Workload, seconds: float
) -> RunResult:
    """Set up ``sizes.setups`` servers; each then serves one timed window.

    The windows share ``seconds`` between them, so the timed requests
    are spread over the whole run rather than its last ``seconds``: the
    host's speed drifts over tens of seconds, and sampling it at several
    points keeps one slow stretch from deciding the run.
    """
    started = time.perf_counter()
    records: List[Dict[str, Any]] = list(workload.fill(root))
    fill_s = time.perf_counter() - started
    setups: List[float] = []
    raw_setups: List[float] = []
    windows: List[Phase] = []
    peak_rss = 0.0
    calibrator = Calibrator()
    for attempt in range(workload.sizes.setups):
        workload.before_setup()
        server = ServerProcess(
            root,
            workdir / f"server-{attempt}.log",
            workload.serve_args(),
            cpus=server_cpus(),
        )
        bursts = calibrator.bursts(SETUP_BURSTS, client_cpus())
        spawned = time.perf_counter()
        server.start()
        try:
            records.extend(warm_up(server, workload, f"setup{attempt}"))
            raw_setups.append(time.perf_counter() - spawned)
            # The host's speed just before spawn and just after set-up.
            bursts += calibrator.bursts(SETUP_BURSTS, client_cpus())
            setups.append(raw_setups[-1] * REFERENCE_S / stats.median(bursts))
            windows.append(
                closed_loop(
                    server,
                    workload,
                    seconds / workload.sizes.setups,
                    workload.phase_indices(attempt),
                    f"timed{attempt}",
                    calibrator,
                )
            )
            peak_rss = max(peak_rss, server.peak_rss_mb())
        finally:
            server.stop()
    phase = Phase(
        records=[record for window in windows for record in window.records],
        wall=sum(window.wall for window in windows),
        exhausted=any(window.exhausted for window in windows),
    )
    records.extend(phase.records)
    latency = _latency_metrics(workload, phase)
    units = {"setup_s": "s", "p50_s": "s", "tail_s": "s", "rps": "1/s", "peak_rss_mb": "MiB"}
    values = {
        "setup_s": stats.median(setups),
        "p50_s": latency["p50_s"],
        "tail_s": latency["tail_s"],
        "rps": latency["rps"],
        "peak_rss_mb": peak_rss,
    }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    details = {
        "fill_s": fill_s,
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        **{k: v for k, v in latency.items() if k not in values},
    }
    return _finish(workload, records, details, metrics)


def traced_run(
    root: Path, workdir: Path, workload: Workload, seconds: float
) -> RunResult:
    records: List[Dict[str, Any]] = list(workload.fill(root))
    spans_path = workdir / "spans.json"
    workload.before_setup()
    server = ServerProcess(
        root,
        workdir / "server-traced.log",
        workload.serve_args(),
        launcher=[str(root / "perfbench" / "traced_server.py")],
        env={"PERFBENCH_SPANS": str(spans_path)},
        cpus=server_cpus(),
    )
    spawned = time.perf_counter()
    server.start()
    try:
        setup_records = warm_up(server, workload, "setup")
        setup_end = time.perf_counter()
        _toggle(server, signal.SIGUSR2)
        window = seconds / 3
        untraced = closed_loop(server, workload, window, workload.phase_indices(0), "untraced")
        _toggle(server, signal.SIGUSR1)
        before = scrape(server.host, server.port)
        cpu_before, wall_before = server.cpu_seconds(), time.perf_counter()
        traced = closed_loop(server, workload, window, workload.phase_indices(1), "traced")
        cpu_util = (server.cpu_seconds() - cpu_before) / (time.perf_counter() - wall_before)
        after = scrape(server.host, server.port)
        # The same traffic with the server free to use every CPU: shows
        # what pinning hides (GIL hand-offs across cores), unbounded.
        _toggle(server, signal.SIGUSR2)
        server.set_affinity(os.sched_getaffinity(0))
        unpinned = closed_loop(server, workload, window, workload.phase_indices(2), "unpinned")
    finally:
        server.stop()
    records.extend(setup_records + untraced.records + traced.records + unpinned.records)
    spans = ledger.load(spans_path)
    per_layer = ledger.per_layer(
        spans=spans,
        setup_records=setup_records,
        setup_window=(spawned, setup_end),
        traced=traced.records,
        untraced=untraced.records,
        unpinned=unpinned,
        before=before,
        after=after,
        cpu_util=cpu_util,
    )
    details = {
        "setup_s": setup_end - spawned,
        "untraced_samples": len(untraced.records),
        "traced_samples": len(traced.records),
        "unpinned_samples": len(unpinned.records),
        "spans": len(spans),
    }
    return _finish(workload, records, details, per_layer)


def _toggle(server: ServerProcess, signum: int) -> None:
    """Flip span recording, then make sure the server's main thread ran."""
    server.signal(signum)
    client = Client(server.host, server.port)
    try:
        for _ in range(2):
            client.get("/health")
    finally:
        client.close()


def run(
    root: Path,
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes,
) -> RunResult:
    workdir = root / ".perfbench_work" / f"{workload_name}-{seed}-{int(time.time() * 1e6)}"
    workdir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        workload = WORKLOADS[workload_name](workdir, seed, sizes)
        if trace:
            workload.prepare(seconds / 3, phases=3)
        else:
            workload.prepare(seconds / sizes.setups, phases=sizes.setups)
        inputs_s = time.perf_counter() - started
        if trace:
            result = traced_run(root, workdir, workload, seconds)
        else:
            result = untraced_run(root, workdir, workload, seconds)
        result.details["inputs_s"] = inputs_s
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
