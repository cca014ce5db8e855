"""Unit tests for the command-line interface."""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import run_algorithm
from repro.generators import ring_of_cliques
from repro.graph import write_edge_list

from .conftest import read_cover


@pytest.fixture
def graph_file(tmp_path):
    g, _ = ring_of_cliques(3, 5)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    return path


SRC = Path(__file__).resolve().parents[1] / "src"


def _wait_for_banners(proc, log, count, timeout=30.0):
    """``{banner: port}`` once ``count`` listening banners are logged."""
    deadline = time.monotonic() + timeout
    while True:
        ports = {}
        for line in log.read_text().splitlines():
            banner, _, address = line.rpartition(" ")
            if banner.endswith("listening on"):
                ports[banner] = int(address.rsplit(":", 1)[1])
        if len(ports) == count:
            return ports
        assert proc.poll() is None and time.monotonic() < deadline, (
            log.read_text()
        )
        time.sleep(0.05)


@pytest.mark.parametrize(
    "flags", [("--http",), ("--listen", "--http")], ids=["http", "both"]
)
def test_serve_prints_an_exit_summary_per_front_end(graph_file, tmp_path, flags):
    """One round trip per front-end, then Ctrl-C: every front-end that
    ran names itself in the exit summary, HTTP alone included."""
    argv = [sys.executable, "-m", "repro", "serve", "--max-sessions", "1"]
    for flag in flags:
        argv += [flag, "127.0.0.1:0"]
    log = tmp_path / "serve.log"
    with open(log, "w") as sink:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=sink,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
    try:
        ports = _wait_for_banners(proc, log, len(flags))
        line = json.dumps({"id": "cli", "graph": str(graph_file), "seed": 1})
        if "listening on" in ports:
            with socket.create_connection(
                ("127.0.0.1", ports["listening on"]), timeout=30
            ) as sock:
                stream = sock.makefile("rw", encoding="utf-8")
                stream.write(line + "\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"]
        conn = http.client.HTTPConnection(
            "127.0.0.1", ports["http listening on"], timeout=30
        )
        conn.request("POST", "/detect", body=(line + "\n").encode("utf-8"))
        assert json.loads(conn.getresponse().read())["ok"]
        conn.close()
    finally:
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
    summary = log.read_text()
    kinds = ["socket", "http"] if "--listen" in flags else ["http"]
    for kind in kinds:
        assert re.search(
            rf"^{kind} served 1 response\(s\) to 1 client\(s\): 1 ok, 0 failed",
            summary,
            re.MULTILINE,
        ), summary
    assert len(re.findall(r" served ", summary)) == len(kinds), summary


def _children(pid):
    """The live child pids of ``pid``, from every one of its threads."""
    children = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            listed = (task / "children").read_text()
        except FileNotFoundError:  # the thread exited meanwhile
            continue
        children.update(int(child) for child in listed.split())
    return children


def _running(pid):
    """Whether ``pid`` is a live process (an exited zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _shm_entries():
    return {entry.name for entry in Path("/dev/shm").iterdir()}


def _is_resource_tracker(pid):
    """Whether ``pid`` is multiprocessing's resource tracker, which a
    non-``fork`` pool starts next to its workers and which exits with
    the server, not with the pool."""
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except FileNotFoundError:
        return False
    return b"resource_tracker" in cmdline


@pytest.mark.skipif(
    not Path("/proc/self/task").exists() or not Path("/dev/shm").is_dir(),
    reason="needs /proc task children and /dev/shm",
)
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_serve_drains_on_sigterm(graph_file, tmp_path, method):
    """SIGTERM stops a pooled server as Ctrl-C does: exit 0, the exit
    summary printed, every pool worker joined, nothing left in
    ``/dev/shm`` and no graph export left in the temp dir (a ``spawn``
    pool writes one; a ``fork`` pool writes none)."""
    shm_before = _shm_entries()
    temp = tmp_path / "temp"
    temp.mkdir()
    launcher = (
        "import multiprocessing, sys; "
        f"multiprocessing.set_start_method({method!r}); "
        "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = [sys.executable, "-c", launcher, "serve"]
    argv += ["--http", "127.0.0.1:0", "--workers", "2"]
    log = tmp_path / "serve.log"
    with open(log, "w") as sink:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=sink,
            env=dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(temp)),
        )
    try:
        port = _wait_for_banners(proc, log, 1)["http listening on"]
        line = json.dumps({"id": "term", "graph": str(graph_file), "seed": 1})
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("POST", "/detect", body=(line + "\n").encode("utf-8"))
        response = json.loads(conn.getresponse().read())
        conn.close()
        assert response["ok"], response
        assert response["stats"]["engine_pool"] == "fresh", response
        exports = [entry.name for entry in temp.iterdir()]
        assert len(exports) == (method != "fork"), exports
        assert all(name.startswith("repro_graph_") for name in exports)
        workers = {
            pid for pid in _children(proc.pid) if not _is_resource_tracker(pid)
        }
        assert workers, "the OCA request ran on no pool worker"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, log.read_text()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert not [pid for pid in workers if _running(pid)]
    assert _shm_entries() - shm_before == set()
    assert list(temp.iterdir()) == []
    assert re.search(r"^http served 1 response\(s\)", log.read_text(), re.MULTILINE)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_detect_to_stdout(graph_file, capsys):
    assert main(["detect", str(graph_file), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) >= 3


def test_detect_to_file(graph_file, tmp_path, capsys):
    output = tmp_path / "cover.txt"
    code = main(
        ["detect", str(graph_file), "--seed", "0", "--output", str(output)]
    )
    assert code == 0
    cover = read_cover(output)
    assert len(cover) == 3
    assert "communities" in capsys.readouterr().out


def test_detect_lfk(graph_file, capsys):
    assert main(["detect", str(graph_file), "--algorithm", "LFK", "--seed", "0"]) == 0
    assert capsys.readouterr().out.strip()


def test_detect_raw_mode(graph_file, capsys):
    assert main(["detect", str(graph_file), "--raw", "--seed", "0"]) == 0


@pytest.mark.parametrize(
    "algorithm", ["oca", "lfk", "cfinder", "cpm", "modularity_greedy"]
)
def test_detect_writes_the_library_cover(graph_file, tmp_path, algorithm):
    """Every detector reaches the CLI unchanged: the file round-trip and
    the option plumbing leave the library's cover as it is."""
    output = tmp_path / "cover.txt"
    assert main(
        ["detect", str(graph_file), "--algorithm", algorithm,
         "--seed", "0", "--output", str(output)]
    ) == 0
    g, _ = ring_of_cliques(3, 5)
    expected = run_algorithm(algorithm, g, seed=0, assign_orphans=False)
    assert len(expected.cover) >= 1
    assert read_cover(output) == expected.cover


def test_detect_representation_flag_is_gone(graph_file, capsys):
    with pytest.raises(SystemExit):
        main(["detect", str(graph_file), "--representation", "csr"])
    assert "--representation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "serve"])
@pytest.mark.parametrize("flag, value", [("--backend", "process"), ("--shipping", "shm")])
def test_engine_backend_and_shipping_flags_are_gone(
    graph_file, capsys, command, flag, value
):
    args = [command, str(graph_file)] if command == "detect" else [command]
    with pytest.raises(SystemExit):
        main(args + [flag, value])
    assert flag in capsys.readouterr().err


def test_detect_inline_and_pools_emit_identical_covers(
    graph_file, capsys, start_method
):
    """One worker runs inline; two run a process pool, which ships the
    graph by pickle under ``fork`` and through shared memory under
    ``spawn``.  The cover is the same every way."""
    outputs = []
    for workers, method in (("1", "fork"), ("2", "fork"), ("2", "spawn")):
        start_method(method)
        assert main(
            ["detect", str(graph_file), "--seed", "0",
             "--workers", workers, "--batch-size", "8"]
        ) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_info(graph_file, capsys):
    assert main(["info", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert "nodes: 15" in out
    assert "edges:" in out


def test_experiment_table1(capsys):
    assert main(["experiment", "table1", "--seed", "0"]) == 0
    assert "LFR-benchmark" in capsys.readouterr().out


def test_invalid_algorithm_rejected(graph_file):
    with pytest.raises(SystemExit):
        main(["detect", str(graph_file), "--algorithm", "Louvain"])


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


class TestGenerate:
    def test_generate_lfr_with_truth(self, tmp_path, capsys):
        out = tmp_path / "lfr.txt"
        truth = tmp_path / "truth.txt"
        code = main([
            "generate", "lfr", "--n", "200", "--mu", "0.2",
            "--out", str(out), "--truth", str(truth), "--seed", "1",
        ])
        assert code == 0
        from repro.graph import read_edge_list

        graph = read_edge_list(out)
        assert graph.number_of_nodes() == 200
        cover = read_cover(truth)
        assert cover.covered_nodes() == set(range(200))
        assert "200 nodes" in capsys.readouterr().out

    def test_generate_daisy(self, tmp_path):
        out = tmp_path / "daisy.txt"
        assert main(["generate", "daisy", "--flowers", "2", "--out", str(out)]) == 0
        from repro.graph import read_edge_list

        assert read_edge_list(out).number_of_nodes() == 120

    def test_generate_wikipedia(self, tmp_path):
        out = tmp_path / "wiki.txt"
        assert main(["generate", "wikipedia", "--n", "500", "--out", str(out)]) == 0
        from repro.graph import read_edge_list

        assert read_edge_list(out).number_of_nodes() == 500

    def test_generate_then_detect(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main(["generate", "daisy", "--flowers", "1", "--out", str(out), "--seed", "3"])
        capsys.readouterr()
        assert main(["detect", str(out), "--seed", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) >= 4

    def test_generate_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "mystery", "--out", str(tmp_path / "x.txt")])
