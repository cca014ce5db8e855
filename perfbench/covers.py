"""The cover check: every served cover against an in-process reference.

A reference is ``GraphSession.detect`` on the graph read from the same
edge-list file, with the same algorithm and seed, computed in the
benchmark process outside the timed phase.  Covers are compared in one
canonical form: members sorted, communities sorted.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Tuple

Key = Tuple[str, str, int]  # (edge-list path, algorithm, seed)


def _label_key(label: Any) -> Tuple[str, str]:
    return (type(label).__name__, repr(label))


def canonical(cover: Iterable[Iterable[Any]]) -> List[List[Any]]:
    communities = [sorted(community, key=_label_key) for community in cover]
    communities.sort(key=lambda members: [_label_key(node) for node in members])
    return communities


#: A relabelled copy's path -> (its base graph's path, the label offset).
Copies = Dict[str, Tuple[str, int]]


def _path_references(
    path: str,
    wanted: List[Tuple[str, int]],
    copies: List[Tuple[str, int, List[Tuple[str, int]]]],
) -> Tuple[Dict[str, str], Dict[Key, List[List[Any]]]]:
    """Fingerprints and canonical reference covers of one graph and of
    its relabelled copies ``(copy path, offset, wanted)``.

    A copy compiles to its base's arrays, so its cover for a seed is the
    base's cover with every label shifted; only its fingerprint needs
    the copy itself.
    """
    from repro.detectors import GraphSession
    from repro.graph import read_edge_list
    from repro.serving.fingerprint import graph_fingerprint

    with GraphSession(read_edge_list(path)) as session:
        raw = {
            (algorithm, seed): session.detect(algorithm, seed=seed).cover
            for algorithm, seed in wanted
        }
        fingerprints = {path: session.fingerprint}
    covers = {(path, algorithm, seed): canonical(cover) for (algorithm, seed), cover in raw.items()}
    for copy, offset, copy_wanted in copies:
        fingerprints[copy] = graph_fingerprint(read_edge_list(copy))
        for algorithm, seed in copy_wanted:
            shifted = [[node + offset for node in c] for c in raw[(algorithm, seed)]]
            covers[(copy, algorithm, seed)] = canonical(shifted)
    return fingerprints, covers


def reference_covers(
    keys: Iterable[Key], processes: int = 2, copies: Optional[Copies] = None
) -> Tuple[Dict[Key, List[List[Any]]], Dict[str, str]]:
    """Canonical reference covers per key, and each graph's fingerprint.

    A key whose path is in ``copies`` is answered from its base graph.
    Graphs are independent, so up to ``processes`` worker processes
    compute them side by side; this runs after the server has stopped.
    """
    copies = copies or {}
    by_path: Dict[str, set] = {}
    copy_jobs: Dict[str, Dict[str, List[Tuple[str, int]]]] = {}
    for path, algorithm, seed in sorted(set(keys)):
        if path in copies:
            base, _ = copies[path]
            by_path.setdefault(base, set()).add((algorithm, seed))
            copy_jobs.setdefault(base, {}).setdefault(path, []).append((algorithm, seed))
        else:
            by_path.setdefault(path, set()).add((algorithm, seed))
    jobs = [
        (
            path,
            sorted(wanted),
            [
                (copy, copies[copy][1], copy_wanted)
                for copy, copy_wanted in sorted(copy_jobs.get(path, {}).items())
            ],
        )
        for path, wanted in sorted(by_path.items())
    ]
    # Largest graphs first, so that the last job to start is a short one.
    jobs.sort(key=lambda job: -os.path.getsize(job[0]))
    workers = min(processes, len(jobs), len(os.sched_getaffinity(0)))
    if workers <= 1:
        results = [_path_references(*job) for job in jobs]
    else:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            results = list(pool.map(_path_references, *zip(*jobs)))
    covers: Dict[Key, List[List[Any]]] = {}
    fingerprints: Dict[str, str] = {}
    for path_fingerprints, path_covers in results:
        fingerprints.update(path_fingerprints)
        covers.update(path_covers)
    return covers, fingerprints


def check(
    records: Iterable[Dict[str, Any]],
    covers: Dict[Key, List[List[Any]]],
    fingerprints: Dict[str, str],
) -> List[str]:
    """Mark each record ``ok`` or not; returns one line per failure.

    A record carries ``key`` and the server's ``response``.  An error
    response, a refusal, a fingerprint other than the graph's, and a
    cover other than the reference all count as failures.
    """
    problems = []
    for record in records:
        response = record["response"]
        path = record["key"][0]
        if not response.get("ok"):
            problem = f"error response: {response.get('error')}"
        elif response.get("fingerprint") != fingerprints[path]:
            problem = "fingerprint differs from the graph's"
        elif canonical(response["communities"]) != covers[record["key"]]:
            problem = "cover differs from the in-process reference"
        else:
            problem = None
        record["ok"] = problem is None
        if problem is not None:
            problems.append(f"{record['id']}: {problem}")
    return problems
