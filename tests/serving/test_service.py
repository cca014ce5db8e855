"""The JSONL front-end: schemas, error isolation, CLI integration."""

import io
import json
import threading
import time

import pytest

from repro import GraphSession, graph_fingerprint
from repro.cli import main
from repro.generators import ring_of_cliques
from repro.graph import write_edge_list
from repro.serving import ServingService, serve_stream


@pytest.fixture()
def graph():
    g, _ = ring_of_cliques(4, 5)
    return g


@pytest.fixture()
def graph_path(graph, tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return str(path)


def _cover_from_response(response):
    return {frozenset(community) for community in response["communities"]}


def _request_lines(*payloads):
    return io.StringIO("\n".join(json.dumps(payload) for payload in payloads))


class TestBatchMode:
    def test_responses_in_request_order_with_ids(self, graph, graph_path):
        requests = _request_lines(
            {"id": "first", "graph": graph_path, "algorithm": "oca", "seed": 3},
            {"id": "second", "graph": graph_path, "algorithm": "oca", "seed": 3},
            {"id": "third", "graph": graph_path, "algorithm": "cpm"},
        )
        output = io.StringIO()
        summary = serve_stream(requests, output, max_sessions=2)
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [r["id"] for r in responses] == ["first", "second", "third"]
        assert all(r["ok"] for r in responses)
        assert responses[0]["session_hit"] is False
        assert responses[1]["session_hit"] is True
        assert responses[0]["fingerprint"] == graph_fingerprint(graph)
        assert summary["requests"] == 3 and summary["failed"] == 0
        assert summary["session_hits"] == 2  # second + third share the session
        # Served covers are byte-identical to a direct session detect.
        with GraphSession(graph) as session:
            expected = session.detect("oca", seed=3).cover
        assert _cover_from_response(responses[0]) == {
            frozenset(c) for c in expected
        }
        assert responses[0]["latency_seconds"] >= responses[0]["elapsed_seconds"]

    def test_inline_edges_and_fingerprint_requests(self, graph):
        edges = [[u, v] for u, v in graph.edges()]
        requests = _request_lines(
            {"id": 1, "graph": {"edges": edges}, "seed": 0},
            {"id": 2, "fingerprint": graph_fingerprint(graph), "seed": 0},
        )
        output = io.StringIO()
        # One dispatch worker: the fingerprint request must not race the
        # inline request's session bind (execution order across queue
        # workers is unordered by design — a bare fingerprint only
        # targets sessions that are already warm when it dispatches).
        summary = serve_stream(
            requests, output, max_sessions=2, queue_workers=1
        )
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert all(r["ok"] for r in responses)
        # The inline graph has the same content => same fingerprint =>
        # the bare-fingerprint request hit its warm session.
        assert responses[1]["session_hit"] is True
        assert _cover_from_response(responses[0]) == _cover_from_response(
            responses[1]
        )
        assert summary["ok"] == 2

    def test_failures_are_per_request(self, graph_path):
        requests = io.StringIO(
            "\n".join(
                [
                    json.dumps({"id": "bad-algo", "graph": graph_path,
                                "algorithm": "nope"}),
                    "this is not json",
                    json.dumps({"id": "no-graph"}),
                    json.dumps({"id": "cold-fp", "fingerprint": "0" * 64}),
                    json.dumps({"id": "ok", "graph": graph_path, "seed": 1}),
                ]
            )
        )
        output = io.StringIO()
        summary = serve_stream(requests, output, max_sessions=2)
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [False, False, False, False, True]
        assert "unknown algorithm" in responses[0]["error"]
        assert "malformed JSON" in responses[1]["error"]
        assert "graph" in responses[2]["error"]
        assert "no warm session" in responses[3]["error"]
        # Every failure that could be attributed carries its request id.
        assert [r["id"] for r in responses] == [
            "bad-algo", None, "no-graph", "cold-fp", "ok",
        ]
        assert summary == {**summary, "requests": 5, "ok": 1, "failed": 4}

    def test_non_repro_errors_are_isolated_per_request(self, graph_path, tmp_path):
        """A missing file, a malformed edge, or a params TypeError must
        produce an ok:false response — never abort the batch."""
        requests = _request_lines(
            {"id": "gone", "graph": str(tmp_path / "missing.edges"), "seed": 0},
            {"id": "triple", "graph": {"edges": [[1, 2, 3]]}, "seed": 0},
            {"id": "badparam", "graph": graph_path,
             "params": {"batch_size": "four"}},
            {"id": "fine", "graph": graph_path, "seed": 0},
        )
        output = io.StringIO()
        summary = serve_stream(requests, output, max_sessions=2)
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [r["id"] for r in responses] == ["gone", "triple", "badparam", "fine"]
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert all(r["error"] for r in responses[:3])
        assert summary["failed"] == 3 and summary["ok"] == 1

    def test_blank_lines_and_comments_are_skipped(self, graph_path):
        requests = io.StringIO(
            "\n# a comment\n\n"
            + json.dumps({"id": 9, "graph": graph_path, "seed": 2})
            + "\n"
        )
        output = io.StringIO()
        summary = serve_stream(requests, output)
        assert summary["requests"] == 1

    def test_supplied_manager_is_used_even_when_empty(self, graph_path):
        from repro import SessionManager

        # A fresh manager is len()==0 and therefore falsy — it must
        # still be honoured (and left open) by the service.
        with SessionManager(max_sessions=7) as manager:
            with ServingService(manager=manager) as service:
                assert service.manager is manager
                responses = list(
                    service.handle_lines(
                        [json.dumps({"id": 0, "graph": graph_path, "seed": 1})]
                    )
                )
                assert responses[0]["ok"]
            assert not manager.closed  # caller-owned managers stay open
            assert manager.stats.misses == 1

    def test_graph_path_cache_shares_sessions(self, graph_path):
        with ServingService(max_sessions=4) as service:
            requests = [
                json.dumps({"id": i, "graph": graph_path, "seed": i})
                for i in range(4)
            ]
            responses = list(service.handle_lines(requests))
            assert all(r["ok"] for r in responses)
            assert service.manager.stats.misses == 1
            assert service.manager.stats.hits == 3

    def test_never_seen_paths_keep_only_the_path_cache_alive(self, tmp_path):
        """A stream of never-seen graph files keeps at most the per-path
        cache's graphs (which hold the resident sessions' graphs too)
        alive, each with its identity twin: neither the store, the
        fingerprint nor the queue holds an evicted session's graph.  The
        path cache sits outside the manager's session budget."""
        import gc

        from repro.graph import CompiledGraph
        from repro.serving.service import _GRAPH_CACHE_LIMIT

        paths = []
        for index in range(60):
            graph, _ = ring_of_cliques(3 + index % 5, 3 + index // 5 % 4)
            graph.add_edges([(0, 1000 + index)])
            paths.append(str(tmp_path / f"g{index}.edges"))
            write_edge_list(graph, paths[-1])
        alive_before = [o for o in gc.get_objects() if isinstance(o, CompiledGraph)]
        known = {id(o) for o in alive_before}
        with ServingService(max_sessions=3, store_dir=str(tmp_path / "store")) as service:
            requests = (json.dumps({"graph": path, "seed": 1}) for path in paths)
            assert all(r["ok"] for r in service.handle_lines(requests))
            gc.collect()
            live = [
                o
                for o in gc.get_objects()
                if isinstance(o, CompiledGraph) and id(o) not in known
            ]
            twins = {id(o._identity) for o in live if o._identity is not None}
            graphs = [o for o in live if id(o) not in twins]
            assert len(service.manager) == 3
            assert len(graphs) <= _GRAPH_CACHE_LIMIT + len(service.manager)
            cached = {id(graph) for _version, graph in service._graph_cache.values()}
            assert {id(o) for o in graphs} <= cached

    def test_rewritten_graph_file_is_reloaded(self, tmp_path):
        import os

        from repro.generators import ring_of_cliques
        from repro.graph import write_edge_list

        path = tmp_path / "mutable.edges"
        first, _ = ring_of_cliques(3, 4)
        write_edge_list(first, path)
        request = json.dumps({"id": 0, "graph": str(path), "seed": 0})
        with ServingService(max_sessions=4) as service:
            before = list(service.handle_lines([request]))[0]
            # Rewrite the file in place with a different graph (and
            # force a distinct mtime for coarse filesystem clocks).
            second, _ = ring_of_cliques(5, 4)
            write_edge_list(second, path)
            os.utime(path, ns=(1, 1))
            after = list(service.handle_lines([request]))[0]
        assert before["ok"] and after["ok"]
        # The stale cache entry must not serve the old graph's cover.
        assert before["fingerprint"] != after["fingerprint"]
        assert after["fingerprint"] == graph_fingerprint(second)

    @pytest.mark.parametrize("algorithm", ["oca", "lfk", "cfinder"])
    def test_path_named_graphs_are_read_straight_into_csr(
        self, tmp_path, monkeypatch, algorithm
    ):
        """A path-named request is read into a CompiledGraph without the
        dict-of-sets Graph, and answers with the cover and fingerprint
        that reading the file into a Graph gives."""
        from repro.graph import CompiledGraph, read_edge_list

        base, _ = ring_of_cliques(5, 4)
        path = tmp_path / "shifted.edges"
        path.write_text(
            "".join(f"{u + 1000} {v + 1000}\n" for u, v in base.edges())
        )
        reference = read_edge_list(path)
        with GraphSession(reference) as session:
            expected = session.detect(algorithm, seed=5).cover

        def no_dict_read(*args, **kwargs):
            raise AssertionError("the dict-of-sets reader ran")

        monkeypatch.setattr("repro.graph.io.read_edge_list", no_dict_read)
        request = json.dumps(
            {"id": 0, "graph": str(path), "algorithm": algorithm, "seed": 5}
        )
        with ServingService(max_sessions=1) as service:
            response = list(service.handle_lines([request]))[0]
            cached = [graph for _, graph in service._graph_cache.values()]
        assert response["ok"], response
        assert response["fingerprint"] == graph_fingerprint(reference)
        assert _cover_from_response(response) == {
            frozenset(community) for community in expected
        }
        assert len(cached) == 1 and isinstance(cached[0], CompiledGraph)
        assert not cached[0].identity_labels


class _GatedManager:
    """Blocks every detect on one gate; returns a result-shaped stub."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0

    def detect(self, graph, algorithm, seed=None, **params):
        self.started.set()
        assert self.release.wait(timeout=30)
        self.calls += 1

        class _Result:
            algorithm = "stub"
            cover = [[0]]
            elapsed_seconds = 0.0

            def __init__(self):
                self.stats = {}

        return _Result()


def _stub_line(request_id, seed=0):
    return json.dumps(
        {"id": request_id, "fingerprint": "f" * 64, "seed": seed}
    )


class TestShutdownRaces:
    """ISSUE 5 headline bug: ServingQueue.close() racing an in-flight
    batch used to let submit_blocking's ServingError escape
    handle_lines, aborting the stream and dropping every pending *and
    completed* response."""

    def test_queue_closed_mid_stream_never_raises_out_of_handle_lines(self):
        gate = _GatedManager()
        service = ServingService(manager=gate, queue_workers=1, max_depth=4)

        def lines():
            yield _stub_line("in-flight")
            assert gate.started.wait(timeout=30)  # r0 is being served
            # The race: the queue shuts down under the live stream.
            closer = threading.Thread(
                target=lambda: service.queue.close(drain=True)
            )
            closer.start()
            while not service.queue.closed:
                time.sleep(0.001)
            yield _stub_line("after-close-1")
            yield _stub_line("after-close-2")
            gate.release.set()
            closer.join(timeout=30)

        responses = list(service.handle_lines(lines()))
        # Nothing escaped; every request got its response slot, in order.
        assert [r["id"] for r in responses] == [
            "in-flight", "after-close-1", "after-close-2",
        ]
        # The already-submitted future still flushed as a real result...
        assert responses[0]["ok"] is True
        # ...and the unsubmittable ones are per-request failures.
        assert [r["ok"] for r in responses[1:]] == [False, False]
        assert all("closed" in r["error"] for r in responses[1:])
        assert service.queue.stats.rejected_closed == 2

    def test_non_drain_close_cancels_pending_into_error_responses(self):
        """close(drain=False) with queued work: cancelled requests come
        back as ok:false responses, the in-flight one still completes."""
        gate = _GatedManager()
        service = ServingService(manager=gate, queue_workers=1, max_depth=4)

        def lines():
            yield _stub_line("dispatched")
            assert gate.started.wait(timeout=30)
            yield _stub_line("queued-1")
            yield _stub_line("queued-2")
            closer = threading.Thread(
                target=lambda: service.queue.close(drain=False)
            )
            closer.start()
            while not service.queue.closed:
                time.sleep(0.001)
            gate.release.set()
            closer.join(timeout=30)

        responses = list(service.handle_lines(lines()))
        assert [r["id"] for r in responses] == [
            "dispatched", "queued-1", "queued-2",
        ]
        assert responses[0]["ok"] is True  # in-flight work is never lost
        assert [r["ok"] for r in responses[1:]] == [False, False]
        assert gate.calls == 1  # the cancelled detects never ran
        assert service.queue.stats.cancelled == 2

    def test_submit_after_close_through_service_path(self):
        """A fully closed queue: the stream is all ok:false, no raise."""
        gate = _GatedManager()
        gate.release.set()
        service = ServingService(manager=gate, queue_workers=1, max_depth=4)
        service.queue.close()
        responses = list(
            service.handle_lines([_stub_line(i) for i in range(3)])
        )
        assert [r["ok"] for r in responses] == [False, False, False]
        assert all("closed" in r["error"] for r in responses)
        assert service.queue.stats.rejected_closed == 3
        assert gate.calls == 0

    def test_submit_timeout_becomes_error_response(self):
        """submit_timeout_seconds bounds the stall a full queue causes:
        the starved request fails per-request instead of hanging."""
        gate = _GatedManager()
        service = ServingService(
            manager=gate,
            queue_workers=1,
            max_depth=1,
            submit_timeout_seconds=0.05,
        )
        lines = [_stub_line("served"), _stub_line("fills-queue"),
                 _stub_line("starved")]
        collected = []
        streamer = threading.Thread(
            target=lambda: collected.extend(service.handle_lines(lines))
        )
        streamer.start()
        assert gate.started.wait(timeout=30)
        # "starved" cannot be admitted while the queue stays full; after
        # 0.05s it is refused and the stream moves on.
        time.sleep(0.2)
        gate.release.set()
        streamer.join(timeout=30)
        assert not streamer.is_alive()
        service.close()
        by_id = {r["id"]: r for r in collected}
        assert by_id["served"]["ok"] is True
        assert by_id["fills-queue"]["ok"] is True
        assert by_id["starved"]["ok"] is False
        assert service.queue.stats.rejected == 1


class TestCLI:
    def test_serve_roundtrip_through_files(self, graph, graph_path, tmp_path, capsys):
        requests_path = tmp_path / "requests.jsonl"
        output_path = tmp_path / "responses.jsonl"
        requests_path.write_text(
            "\n".join(
                json.dumps({"id": i, "graph": graph_path, "seed": 5})
                for i in range(3)
            )
        )
        rc = main(
            [
                "serve",
                "--requests", str(requests_path),
                "--output", str(output_path),
                "--max-sessions", "2",
                "--queue-workers", "2",
            ]
        )
        assert rc == 0
        summary_line = capsys.readouterr().err
        assert "served 3 request(s)" in summary_line
        responses = [
            json.loads(line) for line in output_path.read_text().splitlines()
        ]
        assert len(responses) == 3
        with GraphSession(graph) as session:
            expected = {frozenset(c) for c in session.detect("oca", seed=5).cover}
        assert all(_cover_from_response(r) == expected for r in responses)

    def test_serve_nonzero_exit_on_failures(self, graph_path, tmp_path, capsys):
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            json.dumps({"id": 0, "graph": graph_path, "algorithm": "nope"})
        )
        rc = main(["serve", "--requests", str(requests_path), "--quiet"])
        assert rc == 1
        out = capsys.readouterr()
        assert json.loads(out.out)["ok"] is False
        assert out.err == ""  # --quiet suppressed the summary
