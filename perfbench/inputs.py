"""Benchmark inputs: LFR edge-list files and request seeds.

Graphs are LFR instances of the ``bench_csr`` family, written as
edge-list files before the server starts: the server only ever sees
those files and JSONL requests.  Request seeds are drawn from the
workload seed; graphs are fixed members of the family
(:func:`family_seed`).  The same (workload, seed) always gives the
same files and the same request sequence.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple


def lfr_params(n: int):
    """The ``bench_csr`` LFR family: dense communities, heavy tasks."""
    from repro.generators import LFRParams

    return LFRParams(
        n=n,
        mu=0.3,
        average_degree=min(40.0, max(8.0, n / 25)),
        max_degree=min(100, max(20, n // 10)),
        min_community=min(60, max(10, n // 20)),
        max_community=min(120, max(20, n // 10)),
    )


@dataclass(frozen=True)
class GraphFile:
    """One generated graph and its edge-list path."""

    name: str
    path: Path


class SeedStream:
    """Deterministic draws keyed by (workload, seed)."""

    def __init__(self, workload: str, seed: int) -> None:
        self._key = f"perfbench:{workload}:{seed}"
        self._rng = random.Random(self._key)

    def draw(self) -> int:
        return self._rng.randrange(2**31)

    def draws(self, count: int) -> List[int]:
        return [self.draw() for _ in range(count)]


def family_seed(workload: str, name: str) -> int:
    """The fixed generator seed of one resident graph."""
    digest = hashlib.sha256(f"perfbench:{workload}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def write_lfr(directory: Path, name: str, n: int, seed: int) -> GraphFile:
    """Generate one LFR graph and write it as an edge list."""
    from repro.generators import lfr_graph
    from repro.graph import write_edge_list

    path = directory / f"{name}.edges"
    write_edge_list(lfr_graph(lfr_params(n), seed=seed).graph, path)
    return GraphFile(name=name, path=path)


def write_relabelled(base: GraphFile, copies: Sequence[Tuple[str, int]]) -> List[GraphFile]:
    """Copies of ``base``, each ``(name, offset)`` with every integer
    label shifted by ``offset``.

    Edges keep their order, so a copy compiles to the same CSR arrays
    and costs the same to serve, under a fingerprint of its own.
    """
    edges = [tuple(map(int, line.split())) for line in base.path.read_text().splitlines()]
    written = []
    for name, offset in copies:
        path = base.path.parent / f"{name}.edges"
        path.write_text("".join(f"{u + offset} {v + offset}\n" for u, v in edges))
        written.append(GraphFile(name=name, path=path))
    return written
