"""Workload plumbing: seed pools, whole rounds, the store reset."""

import json
import shutil
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from perfbench.harness import closed_loop
from perfbench.workloads import TOY, WARM_CLASSES, ColdStart, WarmMix


def _warm_mix_keys(workdir, seed, count):
    workdir.mkdir()
    workload = WarmMix(workdir, seed, TOY)
    workload.prepare(1.0, phases=1)
    workload.fingerprints = {str(graph.path): "fp" for graph in workload.graphs}
    return [workload.request(index)[1][1:] for index in range(count)]


def test_warm_mix_sends_classes_in_turn_and_cycles_each_seed_pool(tmp_path):
    keys = _warm_mix_keys(tmp_path / "a", 7, 4 * 2 * TOY.seeds_per_class)
    assert [algorithm for algorithm, _ in keys[:4]] == list(WARM_CLASSES)
    oca = [seed for algorithm, seed in keys if algorithm == "oca"]
    assert len(set(oca)) == TOY.seeds_per_class
    assert oca[: TOY.seeds_per_class] == oca[TOY.seeds_per_class :]
    assert _warm_mix_keys(tmp_path / "b", 7, len(keys)) == keys
    assert _warm_mix_keys(tmp_path / "c", 8, len(keys)) != keys


class _Answer(BaseHTTPRequestHandler):
    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(0.01)
        body = json.dumps({"id": payload["id"], "ok": True}).encode() + b"\n"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Answer)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield SimpleNamespace(host="127.0.0.1", port=httpd.server_address[1])
    httpd.shutdown()
    httpd.server_close()


@pytest.mark.parametrize("seconds", [0.0, 0.015, 0.05])
def test_a_window_ends_on_a_whole_round(stub_server, seconds):
    workload = SimpleNamespace(
        cycle=3,
        request=lambda index: ({"id": f"t{index}"}, ("g", "lfk", index)),
    )
    phase = closed_loop(stub_server, workload, seconds, range(3, 300), "timed")
    assert len(phase.records) % 3 == 0
    assert [r["id"] for r in phase.records[:3]] in ([], ["t3", "t4", "t5"])


def test_every_cold_start_set_up_sees_the_store_as_filled(tmp_path):
    workload = ColdStart(tmp_path, 1, TOY)
    workload.prepare(0.1, phases=1)
    (workload.store_dir / "entries").mkdir(parents=True)
    (workload.store_dir / "entries" / "a.npy").write_bytes(b"filled")
    (workload.store_dir / "access.json").write_text('["a"]')
    # What fill() keeps once its server has written the store.
    shutil.copytree(workload.store_dir, workload.filled_store)
    # A timed window saves never-seen graphs and touches them last.
    (workload.store_dir / "entries" / "b.npy").write_bytes(b"fresh")
    (workload.store_dir / "access.json").write_text('["b", "a"]')
    workload.before_setup()
    files = {
        str(path.relative_to(workload.store_dir)): path.read_bytes()
        for path in workload.store_dir.rglob("*")
        if path.is_file()
    }
    assert files == {"entries/a.npy": b"filled", "access.json": b'["a"]'}
