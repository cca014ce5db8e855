"""The per-layer ledger: spans and scrapes reduced to per-layer metrics.

Time lines are mean seconds per traced request, and they add up: for
each request, the client latency equals the sum of its lines plus
``unattributed_s``.  The serving lines come from the spans the server
already returns in each response (``parse``, ``queue_wait``,
``session_acquire``, ``render``) minus the traced calls nested inside
them; the other lines are self times of traced calls.  Session binds
and store loads during a timed request stay inside
``serving.acquire_s``; the ``detectors.bind_s`` and ``store.load_s``
metrics are the set-up's totals.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from . import stats
from .server import labelled, metric_delta, metric_value
from .tracer import self_times
from .workloads import BASELINE_CLASSES

#: Ledger time lines, in request order.
TIME_LINES = (
    "serving.frontend_s",
    "serving.parse_s",
    "graph.read_s",
    "serving.queue_wait_s",
    "serving.fingerprint_s",
    "graph.compile_s",
    "serving.acquire_s",
    "core.spectral_s",
    "engine.dispatch_s",
    "engine.reduce_s",
    "core.postprocess_s",
    "baselines.lfk_s",
    "baselines.cfinder_s",
    "baselines.modularity_greedy_s",
    "store.save_s",
    "serving.render_s",
    "unattributed_s",
)

#: Every per-layer metric with its unit.
UNITS: Dict[str, str] = {
    **{name: "s" for name in TIME_LINES},
    "engine.tasks": "count",
    "engine.useful_ratio": "ratio",
    "core.runs": "count",
    "baselines.maximal_cliques": "count",
    "serving.cpu_util": "ratio",
    "serving.evictions": "count",
    "serving.session_misses": "count",
    "store.bytes": "bytes",
    "detectors.bind_s": "s",
    "store.load_s": "s",
    "core.spectral_solves": "count",
    "serving.setup_queue_wait_s": "s",
    "serving.unpinned_p50_s": "s",
    "serving.unpinned_rps": "1/s",
    "trace.overhead_s": "s",
    "trace.requests": "count",
}

_SOLVERS = ("power_method", "lanczos")


def load(path) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class _Index:
    """Spans by request id and by parent, with self times."""

    def __init__(self, spans: Sequence[Dict[str, Any]]) -> None:
        self.spans = list(spans)
        self.self_time = self_times(self.spans)
        self.by_rid: Dict[Any, List[Dict[str, Any]]] = {}
        self.children: Dict[int, List[Dict[str, Any]]] = {}
        for span in self.spans:
            self.by_rid.setdefault(span["rid"], []).append(span)
            if span["parent"] is not None:
                self.children.setdefault(span["parent"], []).append(span)

    def subtree(self, span: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Every span below ``span`` (not ``span`` itself)."""
        out, stack = [], list(self.children.get(span["id"], ()))
        while stack:
            child = stack.pop()
            out.append(child)
            stack.extend(self.children.get(child["id"], ()))
        return out

    def self_sum(self, spans, *names: str) -> float:
        return sum(self.self_time[s["id"]] for s in spans if s["name"] in names)


def request_ledger(record: Dict[str, Any], index: _Index) -> Dict[str, float]:
    """One request's time lines (seconds); they sum to its client latency."""
    response = record["response"]
    server = response.get("trace", {}).get("spans", {})
    mine = index.by_rid.get(record["id"], [])
    parse = server.get("parse", 0.0)
    queue_wait = server.get("queue_wait", 0.0)
    acquire = server.get("session_acquire", 0.0)
    render = server.get("render", 0.0)
    in_parse = [c for s in mine if s["name"] == "serving.parse_line" for c in index.subtree(s)]
    in_queue = [
        c for s in mine if s["name"] == "serving.fingerprint_probe" for c in index.subtree(s)
    ]
    in_acquire: List[Dict[str, Any]] = []
    for manager in (s for s in mine if s["name"] == "serving.manager"):
        later = {"detectors.detect", "store.save"}
        skipped = {
            c["id"]
            for top in index.children.get(manager["id"], ())
            if top["name"] in later
            for c in [top] + index.subtree(top)
        }
        in_acquire.extend(c for c in index.subtree(manager) if c["id"] not in skipped)
    lines = {name: 0.0 for name in TIME_LINES}
    lines["serving.frontend_s"] = record["latency"] - (
        parse + response.get("latency_seconds", 0.0) + render
    )
    lines["serving.parse_s"] = parse - sum(index.self_time[s["id"]] for s in in_parse)
    lines["serving.queue_wait_s"] = queue_wait - sum(
        index.self_time[s["id"]] for s in in_queue
    )
    lines["serving.acquire_s"] = acquire - index.self_sum(
        in_acquire, "serving.fingerprint", "graph.compile"
    )
    lines["serving.render_s"] = render
    for line, span_name in (
        ("graph.read_s", "graph.read"),
        ("serving.fingerprint_s", "serving.fingerprint"),
        ("graph.compile_s", "graph.compile"),
        ("core.spectral_s", "core.spectral"),
        ("core.postprocess_s", "core.postprocess"),
        ("store.save_s", "store.save"),
        *((f"baselines.{name}_s", f"baselines.{name}") for name in BASELINE_CLASSES),
    ):
        lines[line] = index.self_sum(mine, span_name)
    for detect in (s for s in mine if s["name"] == "detectors.detect"):
        engine = detect.get("extra", {}).get("engine")
        if engine:
            lines["engine.dispatch_s"] += engine["dispatch_s"]
            lines["engine.reduce_s"] += engine["reduce_s"]
    lines["unattributed_s"] = record["latency"] - sum(
        value for name, value in lines.items() if name != "unattributed_s"
    )
    return lines


def per_layer(
    spans: Sequence[Dict[str, Any]],
    setup_records: Sequence[Dict[str, Any]],
    setup_window: Tuple[float, float],
    traced: Sequence[Dict[str, Any]],
    untraced: Sequence[Dict[str, Any]],
    unpinned: Any,
    before: Dict[str, float],
    after: Dict[str, float],
    cpu_util: float,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric (``{"name": {"value", "unit"}}``)."""
    index = _Index(spans)
    values: Dict[str, float] = {name: 0.0 for name in UNITS}
    ok = [r for r in traced if r["response"].get("ok")]
    if ok:
        ledgers = [request_ledger(record, index) for record in ok]
        for name in TIME_LINES:
            values[name] = sum(ledger[name] for ledger in ledgers) / len(ledgers)
    traced_ids = {r["id"] for r in ok}
    detects = [
        s for s in spans if s["name"] == "detectors.detect" and s["rid"] in traced_ids
    ]
    engines = [s["extra"]["engine"] for s in detects if "engine" in s.get("extra", {})]
    if engines:
        dispatched = sum(e["dispatched"] for e in engines)
        values["engine.tasks"] = dispatched / len(engines)
        values["engine.useful_ratio"] = (
            sum(e["folded"] for e in engines) / dispatched if dispatched else 0.0
        )
        values["core.runs"] = sum(s["extra"]["runs"] for s in detects if "runs" in s["extra"]) / len(engines)
    cliques = [
        s["extra"]["maximal_cliques"]
        for s in spans
        if s["name"] == "baselines.cfinder" and s["rid"] in traced_ids
    ]
    if cliques:
        values["baselines.maximal_cliques"] = sum(cliques) / len(cliques)
    values["serving.cpu_util"] = cpu_util
    values["serving.evictions"] = metric_delta(before, after, "repro_manager_evictions_total")
    values["serving.session_misses"] = sum(
        labelled(after, "repro_manager_requests_total", outcome="miss")
    ) - sum(labelled(before, "repro_manager_requests_total", outcome="miss"))
    values["store.bytes"] = metric_value(after, "repro_store_bytes")
    start, end = setup_window
    in_setup = [s for s in spans if start <= s["start"] and s["end"] <= end]
    values["detectors.bind_s"] = index.self_sum(in_setup, "detectors.bind")
    values["store.load_s"] = index.self_sum(in_setup, "store.load")
    values["core.spectral_solves"] = sum(
        1
        for r in setup_records
        if r["response"].get("stats", {}).get("c_source") in _SOLVERS
    )
    waits = [
        r["response"]["trace"]["spans"].get("queue_wait", 0.0)
        for r in setup_records
        if r["response"].get("ok")
    ]
    values["serving.setup_queue_wait_s"] = sum(waits) / len(waits) if waits else 0.0
    if traced and untraced:
        values["trace.overhead_s"] = stats.median(
            [r["latency"] for r in traced]
        ) - stats.median([r["latency"] for r in untraced])
    values["trace.requests"] = len(ok)
    if unpinned.records:
        values["serving.unpinned_p50_s"] = stats.median(unpinned.latencies)
        values["serving.unpinned_rps"] = len(unpinned.records) / unpinned.wall
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
