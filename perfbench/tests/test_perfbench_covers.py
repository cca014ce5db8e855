"""The cover check: what passes and what counts as a failed request."""

import pytest

from perfbench.covers import canonical, check, reference_covers
from perfbench.inputs import write_lfr, write_relabelled


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    graph = write_lfr(tmp_path_factory.mktemp("graphs"), "g", 150, seed=5)
    key = (str(graph.path), "oca", 3)
    covers, fingerprints = reference_covers([key], processes=1)
    return key, covers, fingerprints


def record(key, response, rid="r"):
    return {"id": rid, "key": key, "response": response}


def good_response(key, covers, fingerprints):
    # The server's member order need not match: check compares canonically.
    communities = [list(reversed(c)) for c in reversed(covers[key])]
    return {"ok": True, "fingerprint": fingerprints[key[0]], "communities": communities}


def test_canonical_sorts_members_and_communities():
    assert canonical([[3, 1], [2, 0]]) == [[0, 2], [1, 3]]


def test_matching_cover_passes(reference):
    key, covers, fingerprints = reference
    records = [record(key, good_response(key, covers, fingerprints))]
    assert check(records, covers, fingerprints) == []
    assert records[0]["ok"]


def test_wrong_cover_is_a_failed_request(reference):
    key, covers, fingerprints = reference
    response = good_response(key, covers, fingerprints)
    response["communities"][0] = response["communities"][0][1:]
    records = [record(key, response, "bad")]
    problems = check(records, covers, fingerprints)
    assert not records[0]["ok"]
    assert problems == ["bad: cover differs from the in-process reference"]


def test_error_response_is_a_failed_request(reference):
    key, covers, fingerprints = reference
    records = [record(key, {"ok": False, "error": "queue full"}, "refused")]
    assert check(records, covers, fingerprints) == ["refused: error response: queue full"]
    assert not records[0]["ok"]


def test_wrong_fingerprint_is_a_failed_request(reference):
    key, covers, fingerprints = reference
    response = good_response(key, covers, fingerprints)
    response["fingerprint"] = "0" * 64
    records = [record(key, response)]
    assert check(records, covers, fingerprints) == ["r: fingerprint differs from the graph's"]


def test_parallel_references_match_serial(reference, tmp_path):
    key, covers, _ = reference
    other = write_lfr(tmp_path, "h", 150, seed=6)
    keys = [key, (str(other.path), "lfk", 1)]
    parallel, _ = reference_covers(keys, processes=2)
    serial, _ = reference_covers(keys, processes=1)
    assert parallel == serial
    assert parallel[key] == covers[key]


def test_a_copy_is_answered_from_its_base_as_if_read_itself(tmp_path):
    base = write_lfr(tmp_path, "base", 150, seed=5)
    (copy,) = write_relabelled(base, [("copy", 10**6)])
    keys = [(str(copy.path), "oca", seed) for seed in (3, 4)]
    copies = {str(copy.path): (str(base.path), 10**6)}
    shifted, shifted_fingerprints = reference_covers(keys, processes=1, copies=copies)
    direct, direct_fingerprints = reference_covers(keys, processes=1)
    assert {key: shifted[key] for key in keys} == direct
    assert shifted_fingerprints[str(copy.path)] == direct_fingerprints[str(copy.path)]
    assert shifted_fingerprints[str(copy.path)] != shifted_fingerprints[str(base.path)]
