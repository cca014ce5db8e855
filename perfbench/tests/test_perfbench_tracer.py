"""Spans, their request ids, and self time as a span minus its children."""

import threading

import pytest

from perfbench.tracer import Tracer, patch_function, self_times, traced


def span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end, "rid": None}


def test_self_time_is_duration_minus_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 5.0, 9.0),
        span(4, 3, 6.0, 7.0),
    ]
    out = self_times(spans)
    assert out[1] == pytest.approx(10.0 - 2.0 - 4.0)
    assert out[3] == pytest.approx(4.0 - 1.0)
    assert out[2] == pytest.approx(2.0)
    assert out[4] == pytest.approx(1.0)
    # Self times of a tree add up to its root's duration.
    assert sum(out.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 5.0), span(3, 1, 4.0, 6.0)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0)


def test_child_outside_its_parent_is_clipped():
    spans = [span(1, None, 2.0, 4.0), span(2, 1, 1.0, 3.0)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_traced_records_parents_and_request_context():
    tracer = Tracer()

    def inner():
        return 1

    def outer(rid):
        return wrapped_inner() + 1

    wrapped_inner = traced(tracer, "inner", inner)
    wrapped_outer = traced(tracer, "outer", outer, context_of=lambda rid: {"rid": rid})
    assert wrapped_outer("r1") == 2
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["inner"].request_id == "r1"
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end <= by_name["outer"].end


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    assert traced(tracer, "f", lambda: 3)() == 3
    assert tracer.spans == []


def test_threads_keep_separate_parent_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def leaf():
        barrier.wait()

    wrapped_leaf = traced(tracer, "leaf", leaf)
    root = traced(tracer, "root", lambda: wrapped_leaf(), context_of=lambda: {"rid": threading.get_ident()})
    threads = [threading.Thread(target=root) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    roots = {s.span_id: s for s in tracer.spans if s.name == "root"}
    for leaf_span in (s for s in tracer.spans if s.name == "leaf"):
        assert leaf_span.request_id == roots[leaf_span.parent].request_id


def test_patch_function_rebinds_every_repro_module_binding():
    import repro.graph.io as io
    import repro.serving.service as service

    original = io.read_edge_list
    marker = object()
    try:
        assert patch_function(original, marker) >= 2
        assert service.read_edge_list is marker
    finally:
        patch_function(marker, original)
    assert service.read_edge_list is original
