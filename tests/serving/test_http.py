"""The HTTP front-end: schema fidelity, /health, /metrics, traces.

The acceptance matrix extends the socket front-end's: covers served
over HTTP must be byte-identical to direct ``GraphSession.detect`` for
all four detectors on both int- and str-labelled graphs.  The
operational endpoints are pinned against the stack's real accounting:
a /metrics scrape must agree with every ``.stats`` view (one registry,
one truth), and /health must flip to draining
*during* a graceful stop, while in-flight work is still finishing.
"""

import asyncio
import http.client
import json
import os
import re
import socket
import threading
import time

import pytest

from repro import Graph, GraphSession
from repro.generators import ring_of_cliques
from repro.observability import EventLog
from repro.serving import (
    HttpServer,
    ServingServer,
    ServingService,
    start_server_thread,
)
from repro.serving.service import _serialize_cover

DETECTORS = ("oca", "lfk", "cfinder", "cpm")
SEED = 41


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
def _request(handle, method, path, body=None, headers=None, timeout=30.0):
    """One HTTP exchange; returns (status, headers dict, body text)."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


def _detect_lines(handle, payloads):
    """POST /detect with one JSONL line per payload; parsed responses."""
    body = "".join(json.dumps(p) + "\n" for p in payloads).encode("utf-8")
    status, _, text = _request(
        handle, "POST", "/detect", body=body,
        headers={"Content-Type": "application/x-ndjson"},
    )
    assert status == 200
    return [json.loads(line) for line in text.strip().splitlines()]


def _parse_metrics(text):
    """Prometheus text -> {'name{labels}': float}, comments skipped."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


@pytest.fixture()
def int_graph():
    g, _ = ring_of_cliques(4, 5)
    return g


@pytest.fixture()
def str_graph(int_graph):
    mapping = {node: f"n{node}" for node in int_graph.nodes()}
    g = Graph(nodes=(mapping[node] for node in int_graph.nodes()))
    for u, v in int_graph.edges():
        g.add_edge(mapping[u], mapping[v])
    return g


def _edges_payload(graph):
    return {"edges": [[u, v] for u, v in graph.edges()]}


# ----------------------------------------------------------------------
# Schema fidelity over HTTP
# ----------------------------------------------------------------------
class TestHttpAcceptanceMatrix:
    def test_http_covers_byte_identical_to_direct_sessions(
        self, int_graph, str_graph
    ):
        """4 detectors x {int,str} labels: POST /detect serves exactly
        the canonical serialization of the direct GraphSession cover."""
        expected = {}
        for label, graph in (("int", int_graph), ("str", str_graph)):
            with GraphSession(graph) as session:
                for name in DETECTORS:
                    cover = session.detect(name, seed=SEED).cover
                    expected[(label, name)] = _serialize_cover(cover)

        with start_server_thread(HttpServer, max_sessions=2) as handle:
            payloads = [
                {
                    "id": f"{label}-{name}",
                    "graph": _edges_payload(graph),
                    "algorithm": name,
                    "seed": SEED,
                }
                for label, graph in (("int", int_graph), ("str", str_graph))
                for name in DETECTORS
            ]
            responses = _detect_lines(handle, payloads)
            assert len(responses) == len(payloads)
            for payload, response in zip(payloads, responses):
                assert response["ok"], response
                assert response["id"] == payload["id"]
                label, name = payload["id"].split("-", 1)
                assert response["communities"] == expected[(label, name)]
                assert response["algorithm"] == name

    def test_http_and_socket_response_lines_are_byte_identical(
        self, int_graph
    ):
        """The exact response text, not just the cover: both front-ends
        serialize through the same helpers, modulo per-run timings."""
        payload = {
            "id": "same",
            "graph": _edges_payload(int_graph),
            "algorithm": "oca",
            "seed": SEED,
        }

        def _scrub(line):
            response = json.loads(line)
            for volatile in ("elapsed_seconds", "latency_seconds",
                             "stats", "trace"):
                response.pop(volatile, None)
            return json.dumps(response, sort_keys=True)

        with start_server_thread(HttpServer, max_sessions=1) as handle:
            _, _, http_text = _request(
                handle, "POST", "/detect",
                body=(json.dumps(payload) + "\n").encode("utf-8"),
            )
        import socket as socket_module

        with start_server_thread(max_sessions=1) as handle:
            sock = socket_module.create_connection(
                (handle.host, handle.port), timeout=30
            )
            stream = sock.makefile("rw", encoding="utf-8")
            stream.write(json.dumps(payload) + "\n")
            stream.flush()
            socket_text = stream.readline()
            sock.close()
        assert _scrub(http_text.strip()) == _scrub(socket_text.strip())

    def test_warm_requests_cost_the_same_work_on_both_front_ends(
        self, int_graph, monkeypatch
    ):
        """The same warm fingerprint requests over the socket and over
        HTTP, on one shared service: identical covers, and the same
        queue, session and response counts per request.  Neither side
        may compile a graph or solve the spectrum."""
        other, _ = ring_of_cliques(5, 4)
        work = (
            "repro_queue_submitted_total",
            'repro_session_detect_seconds_count{algorithm="oca"}',
            'repro_service_responses_total{status="ok"}',
        )
        with start_server_thread(HttpServer, max_sessions=2) as handle, \
                start_server_thread(
                    ServingServer, service=handle.server.service
                ) as socket_handle:
            service = handle.server.service
            warm = _detect_lines(handle, [
                {"id": f"warm-{i}", "graph": _edges_payload(g), "seed": 0}
                for i, g in enumerate((int_graph, other))
            ])
            fingerprints = [response["fingerprint"] for response in warm]
            payloads = [
                {"id": i, "fingerprint": fingerprints[i % 2], "seed": 1 + i}
                for i in range(6)
            ]

            def forbidden(what):
                def guard(*args, **kwargs):
                    raise AssertionError(f"{what} ran on a warm request")

                return guard

            monkeypatch.setattr("repro.graph.csr._build_csr", forbidden("compile"))
            monkeypatch.setattr(
                "repro.core.spectral.power_method", forbidden("power method")
            )
            monkeypatch.setattr("scipy.sparse.linalg.eigsh", forbidden("eigsh"))

            def counts():
                samples = _parse_metrics(service.registry.render())
                return [samples[key] for key in work]

            before = counts()
            with socket.create_connection(
                (socket_handle.host, socket_handle.port), timeout=30
            ) as sock:
                stream = sock.makefile("rw", encoding="utf-8")
                for payload in payloads:
                    stream.write(json.dumps(payload) + "\n")
                stream.flush()
                over_socket = [
                    json.loads(stream.readline()) for _ in payloads
                ]
            between = counts()
            over_http = _detect_lines(handle, payloads)
            after = counts()
        for response in over_socket + over_http:
            assert response["ok"], response
            assert response["session_source"] == "warm", response
            assert response["stats"]["c_source"] == "cache", response
        assert [r["communities"] for r in over_http] == [
            r["communities"] for r in over_socket
        ]
        socket_work = [b - a for a, b in zip(before, between)]
        http_work = [b - a for a, b in zip(between, after)]
        assert socket_work == http_work == [len(payloads)] * len(work)

    def test_per_line_errors_do_not_poison_the_body(self, int_graph):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            body = (
                json.dumps(
                    {
                        "id": "good",
                        "graph": _edges_payload(int_graph),
                        "algorithm": "oca",
                        "seed": SEED,
                    }
                )
                + "\n"
                + "this is not json\n"
                + json.dumps({"id": "bad-algo",
                              "graph": _edges_payload(int_graph),
                              "algorithm": "nope"})
                + "\n"
            ).encode("utf-8")
            status, _, text = _request(handle, "POST", "/detect", body=body)
            assert status == 200
            responses = [json.loads(line) for line in text.strip().splitlines()]
        assert [r["ok"] for r in responses] == [True, False, False]
        assert responses[0]["id"] == "good"
        assert responses[2]["id"] == "bad-algo"

    def test_body_longer_than_the_client_cap_serves_every_line(
        self, int_graph
    ):
        """Over the cap, an HTTP body line waits for a free slot rather
        than being refused: the server has already read the body."""
        with start_server_thread(
            HttpServer, max_sessions=1, max_inflight_per_client=2
        ) as handle:
            payloads = [
                {"id": i, "graph": _edges_payload(int_graph), "seed": i}
                for i in range(7)
            ]
            responses = _detect_lines(handle, payloads)
        assert [r["id"] for r in responses] == list(range(7))
        assert all(r["ok"] for r in responses), responses
        assert handle.stats.queue_full_rejections == 0

    def test_keep_alive_serves_sequential_requests(self, int_graph):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            try:
                for _ in range(3):
                    conn.request("GET", "/health")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                conn.close()


# ----------------------------------------------------------------------
# Request tracing
# ----------------------------------------------------------------------
class TestTraces:
    def test_trace_ids_round_trip_and_spans_cover_the_pipeline(
        self, int_graph
    ):
        # One request after the other: two lines of one body may be
        # served in either order, and the miss is whichever ran first.
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            responses = [
                _detect_lines(
                    handle,
                    [
                        {
                            "id": f"r{i}",
                            "graph": _edges_payload(int_graph),
                            "algorithm": "oca",
                            "seed": SEED,
                        }
                    ],
                )[0]
                for i in range(2)
            ]
        traces = [response["trace"] for response in responses]
        ids = [trace["id"] for trace in traces]
        assert len(set(ids)) == 2
        for trace_id in ids:
            assert re.fullmatch(r"t-\d+-\d{6}", trace_id)
        for trace in traces:
            assert set(trace["spans"]) >= {
                "parse",
                "queue_wait",
                "session_acquire",
                "detect",
                "render",
            }
            assert all(value >= 0 for value in trace["spans"].values())
        # The second request hits the first's warm session.
        assert traces[0]["session_hit"] is False
        assert traces[1]["session_hit"] is True

    def test_parse_errors_carry_a_trace_too(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            responses = _detect_lines(handle, ["not an object"])
        assert responses[0]["ok"] is False
        assert re.fullmatch(r"t-\d+-\d{6}", responses[0]["trace"]["id"])
        assert "parse" in responses[0]["trace"]["spans"]


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_scrape_parses_and_matches_stats_views(self, int_graph, tmp_path):
        # Components outside a stack count on their private registries.
        with GraphSession(int_graph) as session:
            for seed in range(3):
                session.detect("oca", seed=seed)
        events = EventLog(
            capacity=2, sink_path=tmp_path / "events.jsonl", sink_max_bytes=1024
        )
        for index in range(40):
            events.emit("request", request_id=index, pad="x" * 64)
        events.close()
        assert events.dropped > 0 and events.rotations > 0
        with start_server_thread(
            HttpServer, max_sessions=2, store_dir=str(tmp_path / "store")
        ) as handle, start_server_thread(
            ServingServer, service=handle.server.service, max_line_bytes=1024
        ) as socket_handle:
            # One oversized line: the socket drops that connection.
            with socket.create_connection(
                (socket_handle.host, socket_handle.port), timeout=30
            ) as sock:
                sock.sendall(b"x" * 4096 + b"\n")
                deadline = time.monotonic() + 30
                while (
                    socket_handle.stats.oversized_drops,
                    socket_handle.stats.clients_active,
                ) != (1, 0) and time.monotonic() < deadline:
                    time.sleep(0.01)
            payloads = [
                {
                    "id": f"r{i}",
                    "graph": _edges_payload(int_graph),
                    "algorithm": "oca",
                    "seed": SEED,
                }
                for i in range(4)
            ]
            # One keep-alive connection for the detect, the scrape and
            # the view reads, so the live connection gauge holds still.
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            body = "".join(json.dumps(p) + "\n" for p in payloads)
            conn.request("POST", "/detect", body=body.encode("utf-8"))
            text = conn.getresponse().read().decode("utf-8")
            responses = [json.loads(line) for line in text.splitlines()]
            assert all(r["ok"] for r in responses)
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("content-type").startswith("text/plain")
            samples = _parse_metrics(response.read().decode("utf-8"))
            service = handle.server.service
            session_samples = _parse_metrics(session.registry.render())
            event_samples = _parse_metrics(events.registry.render())
            views = {
                "queue": (service.queue.stats, samples),
                "manager": (service.manager.stats, samples),
                "store": (service.store.stats, samples),
                "front-end": (handle.stats, samples),
                "socket": (socket_handle.stats, samples),
                "session": (session.stats, session_samples),
            }
            keys = {
                label: view.sample_keys() for label, (view, _) in views.items()
            }
            views["events"] = (events, event_samples)
            keys["events"] = {
                "dropped": "repro_events_dropped_total",
                "rotations": "repro_events_sink_rotations_total",
            }
            assert keys["socket"]["oversized_drops"] == (
                "repro_server_oversized_drops_total"
            )
            assert socket_handle.stats.oversized_drops == 1
            # Every sample-backed attribute of every view is the number
            # the scrape serves under that attribute's key.
            for label, (view, scraped) in views.items():
                assert keys[label], label
                for attribute, key in keys[label].items():
                    assert scraped[key] == getattr(view, attribute), (
                        label, attribute, key,
                    )
            conn.close()
            queue_stats = service.queue.stats
            manager_stats = service.manager.stats

        assert samples["repro_queue_submitted_total"] == queue_stats.submitted
        assert samples["repro_queue_completed_total"] == queue_stats.completed
        assert (
            samples['repro_manager_requests_total{outcome="hit"}']
            == manager_stats.hits
        )
        assert (
            samples['repro_manager_requests_total{outcome="miss"}']
            == manager_stats.misses
        )
        assert samples["repro_manager_sessions_resident"] == 1
        assert samples["repro_queue_wait_seconds_count"] == 4
        assert samples['repro_service_responses_total{status="ok"}'] == 4
        assert samples['repro_session_detect_seconds_count{algorithm="oca"}'] == 4
        assert samples['repro_http_requests_total{path="/detect"}'] == 1
        # The front-end's admission counters carry its label, once.
        assert samples['repro_server_requests_total{front_end="http"}'] == 4
        assert handle.stats.requests == handle.stats.ok == 4
        assert handle.stats.responses == 4
        assert handle.stats.clients_total == 1
        # One registry spans every layer: queue, manager, session,
        # service, store, and both front-end families in one scrape.
        prefixes = {key.split("_")[1] for key in samples if "{" not in key}
        assert {"queue", "manager", "session", "service", "http"} <= prefixes
        assert {"store", "server"} <= {key.split("_")[1] for key in samples}

    def test_unknown_paths_scrape_as_other(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            status, _, _ = _request(handle, "GET", "/nope")
            assert status == 404
            _, _, text = _request(handle, "GET", "/metrics")
            samples = _parse_metrics(text)
        assert samples['repro_http_requests_total{path="other"}'] == 1


# ----------------------------------------------------------------------
# /health and graceful shutdown
# ----------------------------------------------------------------------
class _GatedManager:
    """A manager stub whose detects block on one gate."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def __len__(self):
        return 0

    def detect(self, graph, algorithm, seed=None, **params):
        self.started.set()
        assert self.release.wait(timeout=30)

        class _Result:
            algorithm = "stub"
            cover = [[0]]
            elapsed_seconds = 0.0
            raw_cover = None
            stats = {}

        return _Result()


class TestHealthAndShutdown:
    def test_health_reports_ready_with_live_stack_numbers(self):
        with start_server_thread(HttpServer, max_sessions=3) as handle:
            status, _, text = _request(handle, "GET", "/health")
        assert status == 200
        payload = json.loads(text)
        assert payload["status"] == "ready"
        assert payload["queue_depth"] == 0
        assert payload["sessions_resident"] == 0
        assert payload["pid"] == os.getpid()
        assert payload["uptime_seconds"] >= 0.0
        from repro import __version__

        assert payload["version"] == __version__

    def test_health_flips_to_draining_during_graceful_stop(self):
        """During stop(grace): /health answers 503 draining on new
        connections while an in-flight detect is still finishing, and
        the in-flight response is delivered before connections close."""
        gate = _GatedManager()
        service = ServingService(manager=gate, queue_workers=1, max_depth=4)
        handle = start_server_thread(HttpServer, service=service)
        try:
            results = {}

            def post():
                results["detect"] = _request(
                    handle,
                    "POST",
                    "/detect",
                    body=b'{"id": "slow", "fingerprint": "f" }\n',
                )

            poster = threading.Thread(target=post)
            poster.start()
            assert gate.started.wait(timeout=30)

            stop_future = asyncio.run_coroutine_threadsafe(
                handle.server.stop(), handle._loop
            )
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if handle.server.draining:
                    break
                time.sleep(0.01)
            status, _, text = _request(handle, "GET", "/health")
            assert status == 503
            assert json.loads(text)["status"] == "draining"

            gate.release.set()
            stop_future.result(timeout=30)
            poster.join(timeout=30)
            status, _, text = results["detect"]
            assert status == 200
            response = json.loads(text.strip())
            assert response["id"] == "slow"

            with pytest.raises(OSError):
                _request(handle, "GET", "/health", timeout=2)
        finally:
            gate.release.set()
            handle.stop()
            service.close()

    def test_detect_refused_while_draining(self):
        gate = _GatedManager()
        service = ServingService(manager=gate, queue_workers=1, max_depth=4)
        handle = start_server_thread(HttpServer, service=service)
        try:
            def post():
                _request(
                    handle,
                    "POST",
                    "/detect",
                    body=b'{"id": "slow", "fingerprint": "f"}\n',
                )

            poster = threading.Thread(target=post)
            poster.start()
            assert gate.started.wait(timeout=30)
            asyncio.run_coroutine_threadsafe(
                handle.server.stop(), handle._loop
            )
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if handle.server.draining:
                    break
                time.sleep(0.01)
            status, _, text = _request(
                handle, "POST", "/detect", body=b'{"id": "late"}\n'
            )
            assert status == 503
            assert json.loads(text)["error"] == "draining"
            gate.release.set()
            poster.join(timeout=30)
        finally:
            gate.release.set()
            handle.stop()
            service.close()


# ----------------------------------------------------------------------
# Protocol edges
# ----------------------------------------------------------------------
class TestProtocolEdges:
    def test_unknown_endpoint_404(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            status, _, text = _request(handle, "GET", "/covers")
        assert status == 404
        assert "no such endpoint" in json.loads(text)["error"]

    def test_wrong_method_405(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            status, _, _ = _request(handle, "POST", "/health", body=b"")
            assert status == 405
            status, _, _ = _request(handle, "GET", "/detect")
            assert status == 405

    def test_detect_without_content_length_411(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            sock_status = None
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            try:
                conn.putrequest("POST", "/detect", skip_accept_encoding=True)
                conn.endheaders()
                response = conn.getresponse()
                sock_status = response.status
                response.read()
            finally:
                conn.close()
        assert sock_status == 411

    def test_oversized_body_413_and_counted(self):
        with start_server_thread(
            HttpServer, max_sessions=1, max_body_bytes=64
        ) as handle:
            status, _, text = _request(
                handle, "POST", "/detect", body=b"x" * 100
            )
            assert status == 413
            assert "max_body_bytes" in json.loads(text)["error"]
            _, _, metrics_text = _request(handle, "GET", "/metrics")
            samples = _parse_metrics(metrics_text)
        assert samples["repro_http_oversized_total"] == 1

    def test_empty_body_yields_empty_response(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            status, _, text = _request(handle, "POST", "/detect", body=b"")
        assert status == 200
        assert text == ""


# ----------------------------------------------------------------------
# /debug/* forensics
# ----------------------------------------------------------------------
class TestDebugEndpoints:
    def test_debug_events_sees_the_request_event(self, int_graph):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            _detect_lines(handle, [{
                "id": "seen",
                "graph": _edges_payload(int_graph),
                "algorithm": "oca",
                "seed": SEED,
            }])
            status, _, text = _request(handle, "GET", "/debug/events")
        assert status == 200
        payload = json.loads(text)
        kinds = [event["kind"] for event in payload["events"]]
        assert "server_start" in kinds
        assert "request" in kinds
        assert payload["dropped"] == 0
        assert payload["buffered"] == len(payload["events"])
        request_event = next(
            e for e in payload["events"] if e["kind"] == "request"
        )
        assert request_event["request_id"] == "seen"
        assert request_event["client"] == "http-1"  # first connection
        assert request_event["status"] == "ok"
        assert request_event["algorithm"] == "oca"
        assert re.fullmatch(r"t-\d+-\d{6}", request_event["trace"])
        assert "detect" in request_event["spans"]

    def test_debug_events_tags_each_connection_as_its_own_client(
        self, int_graph
    ):
        """The connection is the client: two connections, two tags."""
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            for index in range(2):
                _detect_lines(handle, [{
                    "id": f"c{index}",
                    "graph": _edges_payload(int_graph),
                    "seed": SEED,
                }])
            _, _, text = _request(handle, "GET", "/debug/events?kind=request")
        events = json.loads(text)["events"]
        tags = {event["request_id"]: event["client"] for event in events}
        assert set(tags) == {"c0", "c1"}
        assert tags["c0"] != tags["c1"]
        assert all(re.fullmatch(r"http-\d+", tag) for tag in tags.values())

    def test_debug_events_kind_filter_and_bound(self, int_graph):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            payloads = [
                {
                    "id": f"r{i}",
                    "graph": _edges_payload(int_graph),
                    "algorithm": "oca",
                    "seed": SEED,
                }
                for i in range(3)
            ]
            _detect_lines(handle, payloads)
            status, _, text = _request(
                handle, "GET", "/debug/events?kind=request&n=2"
            )
        assert status == 200
        events = json.loads(text)["events"]
        assert [e["kind"] for e in events] == ["request", "request"]
        assert [e["request_id"] for e in events] == ["r1", "r2"]

    def test_debug_slow_captures_with_zero_threshold(self, int_graph):
        with start_server_thread(
            HttpServer, max_sessions=1, slow_threshold_seconds=0.0
        ) as handle:
            _detect_lines(handle, [{
                "id": "slowpoke",
                "graph": _edges_payload(int_graph),
                "algorithm": "oca",
                "seed": SEED,
            }])
            status, _, text = _request(handle, "GET", "/debug/slow")
        assert status == 200
        payload = json.loads(text)
        assert payload["threshold_seconds"] == 0.0
        assert payload["captured"] == 1
        record = payload["requests"][0]
        assert record["request_id"] == "slowpoke"
        assert record["latency_seconds"] >= 0.0
        # Forensics context rides along: full trace, engine stats, queue.
        assert "spans" in record["trace_export"]
        assert record["stats"]
        assert "queue_depth_now" in record

    def test_debug_slow_empty_without_threshold(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            status, _, text = _request(handle, "GET", "/debug/slow")
        assert status == 200
        payload = json.loads(text)
        assert payload["requests"] == []
        assert payload["threshold_seconds"] is None

    def test_debug_vars_is_the_registry_snapshot(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            _request(handle, "GET", "/health")
            status, _, text = _request(handle, "GET", "/debug/vars")
        assert status == 200
        snapshot = json.loads(text)
        assert snapshot['repro_http_requests_total{path="/health"}'] == 1.0
        assert "repro_manager_sessions_resident" in snapshot

    def test_debug_profile_returns_collapsed_stacks(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            status, headers, text = _request(
                handle, "GET", "/debug/profile?seconds=0.3"
            )
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert text.startswith("# samples:")
        # The serving loop itself is running, so stacks are non-empty.
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body, text
        for line in body:
            assert int(line.rsplit(" ", 1)[1]) >= 1

    def test_debug_profile_rejects_bad_durations(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            for query in ("seconds=0", "seconds=61", "seconds=banana"):
                status, _, _ = _request(
                    handle, "GET", f"/debug/profile?{query}"
                )
                assert status == 400

    def test_debug_unknown_path_404(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            status, _, _ = _request(handle, "GET", "/debug/nope")
        assert status == 404

    def test_debug_is_get_only(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            status, _, text = _request(handle, "POST", "/debug/events")
        assert status == 405
        assert "use GET" in json.loads(text)["error"]

    def test_server_stop_event_emitted_on_close(self):
        with start_server_thread(HttpServer, max_sessions=1) as handle:
            service = handle.server.service
        kinds = [e["kind"] for e in service.events.tail()]
        assert "server_stop" in kinds
