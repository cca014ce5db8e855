"""The server under test and the client that drives it.

:class:`ServerProcess` spawns ``python -m repro serve --http`` (or the
traced launcher) on a free port, waits for its banner, and stops it
with SIGINT — the same path an operator's Ctrl-C takes.  It reads the
process's peak RSS and CPU ticks from ``/proc``.  :class:`Client` is
one keep-alive HTTP connection that posts one JSONL request per
``/detect`` call and times it from the client side.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

_BANNER = re.compile(r"http listening on (\S+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_START_TIMEOUT_S = 60.0


def server_cpus() -> Optional[Set[int]]:
    """The one CPU the server is pinned to: the last one this process may use.

    Unpinned, the server's threads hand the GIL back and forth across
    cores, and on a 2-core host two concurrent detects then run 2-4x
    slower than on one core, by an amount that changes from second to
    second.  One core keeps the contention (two detects share it) and
    makes it repeatable.  With a single CPU there is nothing to pin.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[-1]} if len(cpus) > 1 else None


def client_cpus() -> Optional[Set[int]]:
    """The CPUs the client's connection threads keep to: all but the server's."""
    pinned = server_cpus()
    return set(os.sched_getaffinity(0)) - pinned if pinned else None


class ServerError(RuntimeError):
    """The server did not start, answer, or stop as expected."""


class ServerProcess:
    """One ``repro serve --http 127.0.0.1:0`` process.

    ``serve_args`` are extra ``repro serve`` flags; ``launcher`` replaces
    ``-m repro`` (the traced pass runs ``perfbench/traced_server.py``)
    and ``env`` adds environment variables.  ``cpus`` pins every
    server thread to those CPUs.  stderr goes to ``log_path`` so a
    chatty server can never block on a full pipe.
    """

    def __init__(
        self,
        root: Path,
        log_path: Path,
        serve_args: Sequence[str] = (),
        launcher: Optional[Sequence[str]] = None,
        env: Optional[Dict[str, str]] = None,
        cpus: Optional[Set[int]] = None,
    ) -> None:
        self.root = root
        self.log_path = log_path
        head = list(launcher) if launcher else ["-m", "repro"]
        self.argv = [
            sys.executable,
            *head,
            "serve",
            "--http",
            "127.0.0.1:0",
            "--quiet",
            *serve_args,
        ]
        self.extra_env = dict(env or {})
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env.update(self.extra_env)
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            self.argv,
            cwd=str(self.root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
        )
        if self.cpus:
            # Before the server starts its threads, which inherit it.
            self.set_affinity(self.cpus)
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _BANNER.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                if self.cpus:
                    self.set_affinity(self.cpus)
                return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise ServerError(
            "server did not start: " + self.log_path.read_text(encoding="utf-8")[-2000:]
        )

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        """The process's VmHWM (peak resident set) in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU seconds of every server thread so far."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def set_affinity(self, cpus: Set[int]) -> None:
        """Pin every current thread of the server to ``cpus``."""
        for task in os.listdir(f"/proc/{self.pid}/task"):
            try:
                os.sched_setaffinity(int(task), cpus)
            except ProcessLookupError:
                pass  # the thread ended meanwhile

    def signal(self, signum: int) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT, wait; SIGKILL if the drain overruns. Returns the exit code."""
        if self.proc is None:
            return 0
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            return self.proc.returncode
        finally:
            self._log.close()


class Client:
    """One keep-alive connection posting one request line per call."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def detect(self, payload: Dict[str, Any]) -> Tuple[float, float, Dict[str, Any]]:
        """POST one request; returns (start, end, response) on perf_counter."""
        body = (json.dumps(payload) + "\n").encode("utf-8")
        start = time.perf_counter()
        self.conn.request(
            "POST", "/detect", body, {"Content-Type": "application/x-ndjson"}
        )
        reply = self.conn.getresponse()
        data = reply.read()
        end = time.perf_counter()
        if reply.status != 200:
            return start, end, {
                "id": payload.get("id"),
                "ok": False,
                "error": f"HTTP {reply.status}: {data[:200]!r}",
            }
        lines = data.decode("utf-8").splitlines()
        return start, end, json.loads(lines[0])

    def get(self, path: str) -> str:
        self.conn.request("GET", path)
        reply = self.conn.getresponse()
        data = reply.read().decode("utf-8")
        if reply.status != 200:
            raise ServerError(f"GET {path}: HTTP {reply.status}")
        return data

    def close(self) -> None:
        self.conn.close()


def metric_delta(
    before: Dict[str, float], after: Dict[str, float], name: str
) -> float:
    """Summed change of every sample of ``name`` (any labels) between scrapes."""
    total = 0.0
    for key, value in after.items():
        if key == name or key.startswith(name + "{"):
            total += value - before.get(key, 0.0)
    return total


def metric_value(samples: Dict[str, float], name: str) -> float:
    """Summed value of every sample of ``name`` (any labels)."""
    return sum(
        value
        for key, value in samples.items()
        if key == name or key.startswith(name + "{")
    )


def scrape(host: str, port: int) -> Dict[str, float]:
    """The server's metrics registry as ``{"name{labels}": value}``.

    ``GET /debug/vars`` serves the same registry ``/metrics`` renders,
    already flat and as JSON (histograms as ``_sum``/``_count``).
    """
    client = Client(host, port, timeout=30.0)
    try:
        return json.loads(client.get("/debug/vars"))
    finally:
        client.close()


def labelled(samples: Dict[str, float], name: str, **labels: str) -> List[float]:
    """Values of ``name`` samples whose label set includes ``labels``."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return [
        value
        for key, value in samples.items()
        if key.startswith(name + "{") and all(part in key for part in wanted)
    ]
