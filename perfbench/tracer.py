"""Spans around calls into the program's public functions.

The traced pass runs the server through ``traced_server.py``, which
calls :func:`install` before ``repro serve`` starts.  :func:`install`
replaces each traced function, wherever a ``repro`` module has bound
it, with a wrapper that records a span: name, start, end, parent span
and request id.  Nothing under ``src/`` changes; the wrappers live in
the server process only.  Spans stay in memory and are written out
once, when the server exits.

Request ids come from the request object the serving stack already
carries: a few context wrappers (the parse step, the queue's
fingerprint probe and dispatch) bind the id to the thread for the span
subtree they enclose.

:func:`self_times` reduces spans to self time: a span's duration minus
the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    context: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def request_id(self) -> Any:
        return None if self.context is None else self.context.get("rid")

    def as_json(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "rid": self.request_id,
            **({"extra": self.extra} if self.extra else {}),
        }


class Tracer:
    """An in-memory span recorder with a per-thread parent stack."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, context: Optional[Dict[str, Any]] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if context is None and parent is not None:
            context = parent.context
        span = Span(
            span_id=next(self._ids),
            parent=None if parent is None else parent.span_id,
            name=name,
            start=time.perf_counter(),
            context=context,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.as_json() for span in self.spans], handle)


def traced(
    tracer: Tracer,
    name: str,
    function: Callable,
    context_of: Optional[Callable[..., Optional[Dict[str, Any]]]] = None,
    on_result: Optional[Callable[[Span, Any], None]] = None,
) -> Callable:
    """``function`` wrapped to record one span per call.

    ``context_of(*args, **kwargs)`` may return a fresh request context
    for the subtree; ``on_result(span, result)`` may annotate the span
    (or the context) from the return value.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return function(*args, **kwargs)
        context = context_of(*args, **kwargs) if context_of else None
        span = tracer.begin(name, context)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(span)
        if on_result is not None:
            on_result(span, result)
        return result

    return wrapper


def patch_function(original: Callable, wrapper: Callable) -> int:
    """Rebind ``original`` to ``wrapper`` in every loaded ``repro`` module."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                count += 1
    if count == 0:
        raise RuntimeError(f"{original.__qualname__} is bound nowhere to patch")
    return count


def _request_context(item_index: int) -> Callable[..., Dict[str, Any]]:
    """Context for a queue item ``(request, future, enqueued_at)`` argument."""

    def context_of(*args, **kwargs):
        item = args[item_index]
        return {"rid": getattr(item[0], "id", None)}

    return context_of


def install(tracer: Tracer) -> None:
    """Wrap the serving path's layer boundaries (call after importing repro)."""
    import importlib

    import repro.cli  # noqa: F401  (binds every module the server uses)

    def module(name: str):
        return importlib.import_module(f"repro.{name}")

    cpm, lfk, modularity_greedy = (
        module(f"baselines.{name}") for name in ("cpm", "lfk", "modularity_greedy")
    )
    postprocess_module = module("core.postprocess")
    vector_space = module("core.vector_space")
    csr, io = module("graph.csr"), module("graph.io")
    fingerprint = module("serving.fingerprint")
    GraphSession = module("detectors.session").GraphSession
    ExecutionEngine = module("engine.engine").ExecutionEngine
    SessionManager = module("serving.manager").SessionManager
    ServingQueue = module("serving.queue").ServingQueue
    ServingService = module("serving.service").ServingService
    GraphStore = module("store.store").GraphStore

    for name, original in (
        ("graph.read", io.read_edge_list),
        ("serving.fingerprint", fingerprint.graph_fingerprint),
        ("graph.compile", csr.compile_graph),
        ("core.spectral", vector_space.shared_admissible_c),
        ("core.postprocess", postprocess_module.postprocess),
        ("baselines.lfk", lfk._lfk_compiled),
        ("baselines.modularity_greedy", modularity_greedy.greedy_modularity),
    ):
        patch_function(original, traced(tracer, name, original))

    def note_cliques(span: Span, result: Any) -> None:
        span.extra["maximal_cliques"] = int(result[1])

    patch_function(
        cpm._percolate_ids,
        traced(tracer, "baselines.cfinder", cpm._percolate_ids, on_result=note_cliques),
    )

    def note_detect(span: Span, result: Any) -> None:
        stats = getattr(result, "engine_stats", None)
        span.extra["algorithm"] = result.algorithm
        span.extra["c_source"] = result.stats.get("c_source")
        if stats is not None:
            span.extra["engine"] = {
                "dispatch_s": stats.dispatch_seconds,
                "reduce_s": stats.reduce_seconds,
                "dispatched": stats.tasks_dispatched,
                "folded": stats.tasks_folded,
            }
            span.extra["runs"] = getattr(result, "runs", 0)

    def note_rid(span: Span, result: Any) -> None:
        rid = result.get("id") if isinstance(result, dict) else result.id
        span.context["rid"] = rid

    GraphSession.__init__ = traced(tracer, "detectors.bind", GraphSession.__init__)
    GraphSession.detect = traced(
        tracer, "detectors.detect", GraphSession.detect, on_result=note_detect
    )
    ExecutionEngine.run = traced(tracer, "engine.run", ExecutionEngine.run)
    GraphStore.save = traced(tracer, "store.save", GraphStore.save)
    GraphStore.load = traced(tracer, "store.load", GraphStore.load)
    SessionManager.detect = traced(tracer, "serving.manager", SessionManager.detect)
    ServingService.parse_line = traced(
        tracer,
        "serving.parse_line",
        ServingService.parse_line,
        context_of=lambda *args, **kwargs: {"rid": None},
        on_result=note_rid,
    )
    ServingQueue._fingerprint_of = staticmethod(
        traced(
            tracer,
            "serving.fingerprint_probe",
            ServingQueue._fingerprint_of,
            context_of=_request_context(0),
        )
    )
    ServingQueue._serve_one = traced(
        tracer,
        "serving.serve_one",
        ServingQueue._serve_one,
        context_of=_request_context(1),
    )


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo = max(child["start"], cursor, span["start"])
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out
