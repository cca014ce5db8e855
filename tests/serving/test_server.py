"""The TCP socket front-end and the admission core under both codecs.

The acceptance matrix: covers served over a real socket must be
byte-identical to direct ``GraphSession.detect`` for all four detectors
on both int- and str-labelled graphs.  The admission semantics —
round-robin across clients, per-client in-flight caps, deadline
shedding from arrival — live in one core under both front-ends, so
those tests run over the socket and over HTTP ``/detect`` alike,
against a gated manager stub so they control dispatch timing exactly.
The one rule that differs is the cap: a socket line over it is refused
``"queue full"``, an HTTP body line waits for a free slot.
"""

import http.client
import json
import socket
import threading
import time
from collections import deque

import pytest

from repro import Graph, GraphSession
from repro.errors import ConfigurationError
from repro.generators import ring_of_cliques
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
class _Connection:
    """One JSONL client connection with line-by-line send/receive."""

    def __init__(self, host, port, timeout=30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._sock.makefile("rw", encoding="utf-8")

    def send(self, payload):
        text = payload if isinstance(payload, str) else json.dumps(payload)
        self._stream.write(text + "\n")
        self._stream.flush()

    def receive(self):
        line = self._stream.readline()
        if not line:
            raise AssertionError("server closed the connection early")
        return json.loads(line)

    def send_all(self, payloads):
        for payload in payloads:
            self.send(payload)

    def receive_all(self, count):
        return [self.receive() for _ in range(count)]

    def close(self):
        self._sock.close()


class _HttpConnection:
    """One keep-alive HTTP connection: each ``send_all`` is one POST
    /detect body, posted from a thread so a gated test can go on."""

    def __init__(self, host, port, timeout=30.0):
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self._posts = deque()

    def send_all(self, payloads):
        body = "".join(json.dumps(p) + "\n" for p in payloads).encode()
        box = {}

        def post():
            self._conn.request("POST", "/detect", body=body)
            text = self._conn.getresponse().read().decode("utf-8")
            box["responses"] = [json.loads(line) for line in text.splitlines()]

        thread = threading.Thread(target=post, daemon=True)
        thread.start()
        self._posts.append((thread, box))

    def receive_all(self, count):
        responses = []
        while len(responses) < count:
            thread, box = self._posts.popleft()
            thread.join(timeout=30)
            responses.extend(box["responses"])
        assert len(responses) == count
        return responses

    def close(self):
        self._conn.close()


#: Both codecs over the one admission core.
FRONT_ENDS = pytest.mark.parametrize(
    "front_end", [ServingServer, HttpServer], ids=["socket", "http"]
)


def _connect(front_end, handle):
    connection = _Connection if front_end is ServingServer else _HttpConnection
    return connection(handle.host, handle.port)


class _GatedManager:
    """A manager stub whose detects block on one gate and record order."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = []
        self._lock = threading.Lock()

    def detect(self, graph, algorithm, seed=None, **params):
        self.started.set()
        assert self.release.wait(timeout=30)
        with self._lock:
            self.calls.append(seed)

        class _Result:
            algorithm = "stub"
            cover = [[0]]
            elapsed_seconds = 0.0
            raw_cover = None

            def __init__(self):
                self.stats = {}

        return _Result()


def _wait_until(predicate, timeout=30.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


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
# Schema fidelity over a real socket
# ----------------------------------------------------------------------
class TestSocketAcceptanceMatrix:
    def test_socket_covers_byte_identical_to_direct_sessions(
        self, int_graph, str_graph
    ):
        """4 detectors x {int,str} labels: the socket serves exactly the
        canonical serialization of the direct GraphSession cover."""
        expected = {}
        for label, graph in (("int", int_graph), ("str", str_graph)):
            with GraphSession(graph) as session:
                for name in DETECTORS:
                    cover = session.detect(name, seed=SEED).cover
                    expected[(label, name)] = _serialize_cover(cover)

        with start_server_thread(max_sessions=2) as handle:
            client = _Connection(handle.host, handle.port)
            keys = []
            for label, graph in (("int", int_graph), ("str", str_graph)):
                for name in DETECTORS:
                    keys.append((label, name))
                    client.send(
                        {
                            "id": f"{label}-{name}",
                            "graph": _edges_payload(graph),
                            "algorithm": name,
                            "seed": SEED,
                        }
                    )
            for key in keys:
                response = client.receive()
                assert response["ok"], response
                assert response["id"] == f"{key[0]}-{key[1]}"
                assert response["communities"] == expected[key]
            client.close()
        assert handle.stats.ok == len(keys)

    def test_responses_in_request_order_with_per_request_errors(
        self, int_graph
    ):
        with start_server_thread(max_sessions=2) as handle:
            client = _Connection(handle.host, handle.port)
            client.send(
                {"id": "a", "graph": _edges_payload(int_graph), "seed": 1}
            )
            client.send("this is not json")
            client.send({"id": "c", "graph": _edges_payload(int_graph),
                         "algorithm": "nope"})
            client.send(
                {"id": "d", "graph": _edges_payload(int_graph), "seed": 1}
            )
            responses = [client.receive() for _ in range(4)]
            client.close()
        assert [r["id"] for r in responses] == ["a", None, "c", "d"]
        assert [r["ok"] for r in responses] == [True, False, False, True]
        assert "malformed JSON" in responses[1]["error"]
        assert "unknown algorithm" in responses[2]["error"]
        # The two good requests share content => one warm session.
        assert responses[3]["session_hit"] is True

    def test_two_clients_share_warm_sessions(self, int_graph):
        with start_server_thread(max_sessions=2) as handle:
            first = _Connection(handle.host, handle.port)
            first.send(
                {"id": 0, "graph": _edges_payload(int_graph), "seed": 5}
            )
            warm = first.receive()
            second = _Connection(handle.host, handle.port)
            second.send(
                {"id": 1, "graph": _edges_payload(int_graph), "seed": 5}
            )
            reused = second.receive()
            first.close()
            second.close()
        assert warm["ok"] and reused["ok"]
        assert reused["session_hit"] is True
        assert reused["communities"] == warm["communities"]
        assert handle.stats.clients_total == 2


# ----------------------------------------------------------------------
# Fairness, caps, deadlines (gated manager: dispatch timing is ours)
# ----------------------------------------------------------------------
def _gated_server(gate, front_end, max_inflight_per_client=16, **service_kwargs):
    service = ServingService(manager=gate, **service_kwargs)
    return start_server_thread(
        front_end,
        service=service,
        max_inflight_per_client=max_inflight_per_client,
    )


def _request(request_id, seed, **extra):
    return {"id": request_id, "fingerprint": "f" * 64, "seed": seed, **extra}


@FRONT_ENDS
class TestFairness:
    def test_round_robin_interleaves_unequal_client_streams(self, front_end):
        """A client streaming 10 requests cannot starve one sending 2:
        round-robin admission serves the small client long before the
        big one's backlog clears."""
        gate = _GatedManager()
        heavy_seeds = list(range(10))
        light_seeds = [100, 101]
        with _gated_server(
            gate, front_end, queue_workers=1, max_depth=1
        ) as handle:
            heavy = _connect(front_end, handle)
            heavy.send_all([_request(seed, seed) for seed in heavy_seeds])
            # The heavy stream must be in first: wait until its lines
            # are parsed so the light client genuinely arrives second.
            _wait_until(lambda: handle.stats.requests == len(heavy_seeds))
            light = _connect(front_end, handle)
            light.send_all([_request(seed, seed) for seed in light_seeds])
            _wait_until(
                lambda: handle.stats.requests
                == len(heavy_seeds) + len(light_seeds)
            )
            gate.release.set()
            light_responses = light.receive_all(len(light_seeds))
            heavy_responses = heavy.receive_all(len(heavy_seeds))
            heavy.close()
            light.close()
        assert all(r["ok"] for r in light_responses + heavy_responses)
        # Admission (== dispatch: 1 worker, depth 1) interleaved: both
        # light requests were served well before the heavy backlog — a
        # FIFO queue would have put them at positions 11 and 12.
        positions = [gate.calls.index(seed) for seed in light_seeds]
        assert max(positions) <= 6, gate.calls

    def test_per_client_inflight_cap(self, front_end):
        """Six lines against a cap of two: a socket refuses the four
        over the cap; an HTTP body holds them back until slots free."""
        gate = _GatedManager()
        service = ServingService(manager=gate, queue_workers=1, max_depth=8)
        with start_server_thread(
            front_end, service=service, max_inflight_per_client=2
        ) as handle:
            client = _connect(front_end, handle)
            client.send_all([_request(index, index) for index in range(6)])
            if front_end is ServingServer:
                # All six lines parsed while the first two block the
                # gate: the cap verdict is taken at parse time.
                _wait_until(lambda: handle.stats.requests == 6)
            else:
                # The third line waits at the cap; nothing past it has
                # reached the shared queue.
                _wait_until(lambda: handle.stats.requests == 3)
                time.sleep(0.1)
                assert service.queue.stats.submitted == 2
            gate.release.set()
            responses = client.receive_all(6)
            client.close()
        assert [r["id"] for r in responses] == list(range(6))
        if front_end is ServingServer:
            assert [r["ok"] for r in responses] == [True, True] + [False] * 4
            assert all(r["error"] == "queue full" for r in responses[2:])
            assert handle.stats.queue_full_rejections == 4
            assert sorted(gate.calls) == [0, 1]  # refused ones never ran
        else:
            assert all(r["ok"] for r in responses)
            assert handle.stats.queue_full_rejections == 0
            assert sorted(gate.calls) == list(range(6))

    def test_cap_frees_as_responses_flush(self, front_end):
        """The cap is on *outstanding* work: once earlier responses are
        written, the same client can submit again."""
        gate = _GatedManager()
        gate.release.set()  # no gating: requests flow straight through
        service = ServingService(manager=gate, queue_workers=1, max_depth=8)
        with start_server_thread(
            front_end, service=service, max_inflight_per_client=1
        ) as handle:
            client = _connect(front_end, handle)
            for index in range(5):
                client.send_all([_request(index, index)])
                # Wait: the client's outstanding count drops to 0.
                (response,) = client.receive_all(1)
                assert response["ok"], response
            client.close()
        assert handle.stats.queue_full_rejections == 0
        assert handle.stats.clients_total == 1
        assert len(gate.calls) == 5


class TestDeadlines:
    @FRONT_ENDS
    def test_expired_request_is_shed_without_running_detect(self, front_end):
        gate = _GatedManager()
        with _gated_server(
            gate, front_end, queue_workers=1, max_depth=4
        ) as handle:
            first = _connect(front_end, handle)
            first.send_all([_request("long", 0)])
            assert gate.started.wait(timeout=30)  # worker now blocked
            second = _connect(front_end, handle)
            second.send_all(
                [
                    _request("fill", 1),
                    _request("doomed", 2, deadline_seconds=0.05),
                ]
            )
            _wait_until(lambda: handle.stats.requests == 3)
            time.sleep(0.2)  # the doomed request expires in the queue
            gate.release.set()
            responses = first.receive_all(1) + second.receive_all(2)
            first.close()
            second.close()
        assert [r["id"] for r in responses] == ["long", "fill", "doomed"]
        assert [r["ok"] for r in responses] == [True, True, False]
        assert "deadline" in responses[2]["error"]
        assert handle.stats.deadline_expired == 1
        assert sorted(gate.calls) == [0, 1]  # seed 2's detect never ran

    @FRONT_ENDS
    def test_dead_on_arrival_is_shed_before_the_queue(self, front_end):
        """A budget already spent by its admission turn never takes a
        queue slot: the admission stage sheds it."""
        gate = _GatedManager()
        gate.release.set()
        with _gated_server(gate, front_end, queue_workers=1) as handle:
            client = _connect(front_end, handle)
            client.send_all([_request("doa", 0, deadline_seconds=1e-9)])
            (response,) = client.receive_all(1)
            client.close()
            queue_stats = handle.server.service.queue.stats
        assert response["ok"] is False
        assert "awaiting admission" in response["error"]
        assert queue_stats.expired_admission == 1
        assert queue_stats.submitted == 0
        assert handle.stats.deadline_expired == 1
        assert gate.calls == []

    @FRONT_ENDS
    def test_deadline_covers_time_parked_before_admission(self, front_end):
        """The budget starts at arrival: a request stuck *behind* the
        admission stage (shared queue full, admission blocked) is shed
        too — its clock must not start only at queue submission."""
        gate = _GatedManager()
        with _gated_server(
            gate, front_end, queue_workers=1, max_depth=1
        ) as handle:
            first = _connect(front_end, handle)
            first.send_all([_request("long", 0)])
            assert gate.started.wait(timeout=30)  # worker pinned
            second = _connect(front_end, handle)
            second.send_all(
                [
                    _request("fills", 1),
                    _request("blocks", 2),
                    _request("parked", 3, deadline_seconds=0.05),
                ]
            )
            _wait_until(lambda: handle.stats.requests == 4)
            time.sleep(0.2)  # "parked" expires while awaiting admission
            gate.release.set()
            responses = first.receive_all(1) + second.receive_all(3)
            first.close()
            second.close()
        assert [r["id"] for r in responses] == [
            "long", "fills", "blocks", "parked",
        ]
        assert [r["ok"] for r in responses] == [True, True, True, False]
        assert "deadline" in responses[3]["error"]
        assert handle.stats.deadline_expired == 1
        assert handle.server.service.queue.stats.expired_admission == 1
        assert sorted(gate.calls) == [0, 1, 2]  # the parked detect never ran

    def test_deadline_met_requests_serve_normally(self, int_graph):
        with start_server_thread(max_sessions=2) as handle:
            client = _Connection(handle.host, handle.port)
            client.send(
                {
                    "id": 0,
                    "graph": _edges_payload(int_graph),
                    "seed": 3,
                    "deadline_seconds": 30,
                }
            )
            response = client.receive()
            client.close()
        assert response["ok"], response
        assert handle.stats.deadline_expired == 0

    def test_invalid_deadline_is_a_parse_error(self, int_graph):
        with start_server_thread(max_sessions=2) as handle:
            client = _Connection(handle.host, handle.port)
            client.send(
                {
                    "id": 0,
                    "graph": _edges_payload(int_graph),
                    "deadline_seconds": -1,
                }
            )
            response = client.receive()
            client.close()
        assert response["ok"] is False
        assert "deadline_seconds" in response["error"]


class TestLifecycle:
    @FRONT_ENDS
    def test_invalid_inflight_cap_rejected(self, front_end):
        with pytest.raises(ConfigurationError):
            front_end(max_inflight_per_client=0)

    def test_stop_flushes_inflight_responses(self):
        gate = _GatedManager()
        service = ServingService(manager=gate, queue_workers=1, max_depth=4)
        handle = start_server_thread(service=service)
        client = _Connection(handle.host, handle.port)
        client.send({"id": "inflight", "fingerprint": "f" * 64, "seed": 0})
        assert gate.started.wait(timeout=30)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        gate.release.set()
        response = client.receive()  # written during the graceful stop
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert response["ok"], response
        client.close()
        service.close()

    def test_caller_supplied_service_stays_open(self, int_graph):
        with ServingService(max_sessions=2) as service:
            with start_server_thread(service=service) as handle:
                client = _Connection(handle.host, handle.port)
                client.send(
                    {"id": 0, "graph": _edges_payload(int_graph), "seed": 1}
                )
                assert client.receive()["ok"]
                client.close()
            # The handle owns no service: the queue must still accept.
            assert not service.queue.closed
            responses = list(
                service.handle_lines(
                    [
                        json.dumps(
                            {
                                "id": 1,
                                "graph": _edges_payload(int_graph),
                                "seed": 1,
                            }
                        )
                    ]
                )
            )
            assert responses[0]["ok"]
