"""The scrape's schema is a contract: pinned against a checked-in golden.

perfbench and dashboards scrape ``GET /metrics`` by family name, so a
refactor of how instruments are declared must not rename a family,
change its ``# TYPE`` or ``# HELP`` line, or change its label names.
This test serves one request through a full stack — store, event log,
socket front-end and HTTP front-end on one service — scrapes it over
HTTP and compares every family against ``tests/data/metric_schema.json``.

Regenerate the golden (only for a deliberate schema change) with::

    PYTHONPATH=src python tests/observability/test_metric_schema.py
"""

import http.client
import json
import re
import socket
import sys
from pathlib import Path

from repro.generators import ring_of_cliques
from repro.serving import (
    HttpServer,
    ServingServer,
    ServingService,
    start_server_thread,
)

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "metric_schema.json"

_SAMPLE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)(?:\{(.*)\})? \S+$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="')
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def parse_schema(text):
    """Prometheus text -> {family: {"type", "help", "labels"}}."""
    families = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            families.setdefault(name, {"labels": set()})["help"] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            families.setdefault(name, {"labels": set()})["type"] = kind
        elif line:
            match = _SAMPLE.match(line)
            assert match, line
            name, label_text = match.group(1), match.group(2) or ""
            if name not in families:
                name = next(
                    name[: -len(suffix)]
                    for suffix in _HISTOGRAM_SUFFIXES
                    if name.endswith(suffix) and name[: -len(suffix)] in families
                )
            labels = set(_LABEL.findall(label_text)) - {"le"}
            families[name]["labels"] |= labels
    return {
        name: {**family, "labels": sorted(family["labels"])}
        for name, family in families.items()
    }


def scrape_full_stack(store_dir):
    """One request over the socket, then a scrape over HTTP.

    The scrape is taken twice and the second one kept, so the first
    scrape's own HTTP response is counted and every family has a sample
    that shows its label names.
    """
    graph, _ = ring_of_cliques(4, 5)
    line = json.dumps({
        "id": "schema",
        "graph": {"edges": [[u, v] for u, v in graph.edges()]},
        "algorithm": "oca",
        "seed": 41,
    })
    service = ServingService(max_sessions=2, store_dir=str(store_dir))
    try:
        with start_server_thread(ServingServer, service=service) as sock_handle:
            with start_server_thread(HttpServer, service=service) as http_handle:
                with socket.create_connection(
                    (sock_handle.host, sock_handle.port), timeout=30
                ) as sock:
                    stream = sock.makefile("rw", encoding="utf-8")
                    stream.write(line + "\n")
                    stream.flush()
                    assert json.loads(stream.readline())["ok"] is True
                conn = http.client.HTTPConnection(
                    http_handle.host, http_handle.port, timeout=30
                )
                try:
                    for _ in range(2):
                        conn.request("GET", "/metrics")
                        response = conn.getresponse()
                        assert response.status == 200
                        text = response.read().decode("utf-8")
                    return text
                finally:
                    conn.close()
    finally:
        service.close()


def test_scrape_schema_matches_golden(tmp_path):
    schema = parse_schema(scrape_full_stack(tmp_path / "store"))
    golden = json.loads(GOLDEN.read_text())
    assert sorted(schema) == sorted(golden)
    for name, family in golden.items():
        assert schema[name] == family, name


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        schema = parse_schema(scrape_full_stack(Path(scratch) / "store"))
    GOLDEN.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(schema)} families to {GOLDEN}\n")
