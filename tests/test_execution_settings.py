"""Each execution setting has one owner.

``batch_size`` is an OCA parameter, part of the cover's identity, sent
with each request.  ``workers`` sizes the pool of whoever owns it — a
session, a manager, a server — and never changes a cover.  So one warm
pool serves every batch size, and a served request cannot size the
server's pool.
"""

import json

import pytest

from repro import GraphSession
from repro.graph import write_edge_list
from repro.serving import ServingService

from .conftest import detect
from .detectors.test_goldens import DATA, _graph, cover_digest

SEED = 1
BATCH_SIZES = (1, 4, 8)


@pytest.fixture(scope="module")
def daisy():
    """The golden daisy (``oca_goldens.json``'s ``daisy/int`` cases)."""
    return _graph("daisy")


@pytest.fixture(scope="module")
def golden():
    return json.loads((DATA / "oca_goldens.json").read_text())[
        f"daisy/int/seed{SEED}"
    ]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_one_pool_serves_every_batch_size(
    daisy, method, start_method, pool_executors
):
    start_method(method)
    with GraphSession(daisy, workers=2) as session:
        results = []
        for batch_size in BATCH_SIZES:
            results.append(session.detect("oca", seed=SEED, batch_size=batch_size))
            assert session.stats.pools_closed == 0
    assert session.stats.pools_closed == 1
    assert len(pool_executors) == 1
    assert [r.stats["engine_pool"] for r in results] == ["fresh", "reused", "reused"]
    assert [r.engine_stats.batch_size for r in results] == list(BATCH_SIZES)
    for batch_size, result in zip(BATCH_SIZES, results):
        inline = detect("oca", daisy, seed=SEED, batch_size=batch_size)
        assert result.cover == inline.cover, batch_size


def test_inline_session_holds_no_pool(daisy, pool_executors):
    session = GraphSession(daisy)
    results = [
        session.detect("oca", seed=SEED, batch_size=batch_size)
        for batch_size in BATCH_SIZES
    ]
    session.close()
    results.append(session.reopen().detect("oca", seed=SEED))
    session.close()
    assert [r.stats["engine_pool"] for r in results] == ["none"] * 4
    assert session.stats.pool_reuses == 0
    assert session.stats.pools_closed == 0
    assert pool_executors == []


def _line(path, request_id, **params):
    return json.dumps(
        {"id": request_id, "graph": path, "seed": SEED, "params": params}
    )


def _serve(service, line):
    (response,) = service.handle_lines([line])
    return response


def test_served_params_workers_is_refused(
    daisy, golden, tmp_path, pool_executors
):
    path = str(tmp_path / "daisy.edges")
    write_edge_list(daisy, path)
    with ServingService(workers=2) as service:
        refused = _serve(service, _line(path, "sized", workers=2))
        assert refused["ok"] is False
        assert "workers" in refused["error"]
        assert pool_executors == []
        served = _serve(service, _line(path, "next"))
    # The refused request bound no session: the next one binds it.
    assert served["ok"] is True and served["session_hit"] is False
    assert cover_digest(served["communities"]) == golden
    assert len(pool_executors) == 1


def test_served_batch_size_cover_is_independent_of_server_workers(
    daisy, tmp_path
):
    path = str(tmp_path / "daisy.edges")
    write_edge_list(daisy, path)
    line = _line(path, "batched", batch_size=8)
    digests = []
    for workers in (1, 2):
        with ServingService(workers=workers) as service:
            response = _serve(service, line)
        assert response["ok"] is True, response
        digests.append(cover_digest(response["communities"]))
    inline = detect("oca", daisy, seed=SEED, batch_size=8)
    assert digests == [cover_digest(inline.cover)] * 2
