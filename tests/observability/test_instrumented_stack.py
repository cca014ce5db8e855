"""Observability observes: instruments never change what is served.

One stack runs with every instrument off (``NULL_REGISTRY``, no event
ring), the other with everything on (live registry, event ring, JSONL
access log, an SLO and a slow-request threshold that captures every
request).  Both serve the same warm traffic and must return the same
covers byte for byte, and the instrumented one must log exactly one
``request`` event per response, in the ring and in the access log.
"""

import json

from repro.generators import ring_of_cliques
from repro.graph import write_edge_list
from repro.observability import NULL_REGISTRY
from repro.serving import ServingService

DETECTORS = ("oca", "lfk", "cfinder", "cpm")


def _serve(paths, **service_kwargs):
    """Bind every graph, then warm fingerprint requests over all four
    detectors; returns (responses, ring request events)."""
    with ServingService(max_sessions=len(paths), **service_kwargs) as service:
        responses = list(service.handle_lines(
            json.dumps({"id": f"bind-{i}", "graph": path, "seed": 0})
            for i, path in enumerate(paths)
        ))
        fingerprints = [response["fingerprint"] for response in responses]
        responses += service.handle_lines(
            json.dumps({
                "id": index,
                "fingerprint": fingerprints[index % len(fingerprints)],
                "algorithm": DETECTORS[index % len(DETECTORS)],
                "seed": 1 + index,
            })
            for index in range(8)
        )
        events = service.events.tail(kind="request")
    assert all(response["ok"] for response in responses), responses
    return responses, events


def test_instruments_never_change_a_cover_and_log_each_response_once(tmp_path):
    paths = []
    for cliques in (4, 5):
        path = tmp_path / f"ring{cliques}.edges"
        write_edge_list(ring_of_cliques(cliques, 4)[0], path)
        paths.append(str(path))
    access_log = tmp_path / "access.jsonl"

    bare, bare_events = _serve(paths, registry=NULL_REGISTRY, event_capacity=0)
    instrumented, ring = _serve(
        paths,
        access_log_path=str(access_log),
        slo="p99:1s",
        slow_threshold_seconds=0,
    )

    assert [json.dumps(r["communities"]) for r in instrumented] == [
        json.dumps(r["communities"]) for r in bare
    ]
    assert bare_events == []
    ids = sorted(str(response["id"]) for response in instrumented)
    assert sorted(str(event["request_id"]) for event in ring) == ids
    logged = [
        json.loads(line) for line in access_log.read_text().splitlines() if line
    ]
    requests = [event for event in logged if event["kind"] == "request"]
    assert sorted(str(event["request_id"]) for event in requests) == ids
