"""The two workloads: what each generates, warms up and sends.

A workload owns its inputs (edge-list files derived from the seed), the
server flags it needs, its warm-up requests and its timed request
stream.  Every request is a ``(payload, key)`` pair; the key names the
reference cover it must match.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .covers import Key
from .inputs import GraphFile, SeedStream, family_seed, write_lfr, write_relabelled

Request = Tuple[Dict[str, Any], Key]

BASELINE_CLASSES = ("lfk", "cfinder", "modularity_greedy")
#: ``warm_mix`` sends these in turn, each on its own resident graph.
WARM_CLASSES = ("oca",) + BASELINE_CLASSES


@dataclass(frozen=True)
class Sizes:
    """Per-workload knobs; ``TOY`` shrinks every one for tests."""

    oca_n: int = 2000
    lfk_n: int = 1000
    cfinder_n: int = 750
    cnm_n: int = 420
    #: Distinct request seeds per class on ``warm_mix``; each one gets
    #: one reference, however often it is sent.
    seeds_per_class: int = 16
    store_n: int = 2000
    fresh_n: int = 800
    #: Distinct LFR graphs behind ``cold_start``'s never-seen files,
    #: and the distinct request seeds each one's copies take in turn.
    fresh_bases: int = 8
    seeds_per_base: int = 3
    fresh_per_second: float = 6.0
    setups: int = 3


FULL = Sizes()
TOY = Sizes(
    oca_n=300,
    lfk_n=300,
    cfinder_n=200,
    cnm_n=150,
    seeds_per_class=2,
    store_n=300,
    fresh_n=200,
    fresh_bases=2,
    seeds_per_base=1,
    fresh_per_second=40.0,
    setups=2,
)


class Workload:
    """Base: inputs, server flags, warm-up, timed stream."""

    name = ""
    #: A timed window ends only at a multiple of this many requests, so
    #: every window sends whole rounds of the workload's request mix.
    cycle = 1
    #: Request classes whose medians count once each in ``p50_s``.
    classes: Tuple[str, ...] = ()

    def class_of(self, key: Key) -> str:
        """The class of the request with reference ``key``."""
        return key[1]  # its algorithm

    def __init__(self, workdir: Path, seed: int, sizes: Sizes) -> None:
        self.workdir = workdir
        self.sizes = sizes
        self.seeds = SeedStream(self.name, seed)
        self.graphs: List[GraphFile] = []
        self.fingerprints: Dict[str, str] = {}
        #: Relabelled copies: path -> (base graph's path, label offset).
        self.copies: Dict[str, Tuple[str, int]] = {}

    def prepare(self, phase_seconds: float, phases: int) -> None:
        """Write the inputs for ``phases`` timed phases of ``phase_seconds``."""
        raise NotImplementedError

    def serve_args(self) -> List[str]:
        return ["--max-sessions", "3"]

    def fill(self, root: Path) -> List[Dict[str, Any]]:
        """Work an earlier server does before set-up (default: none)."""
        return []

    def before_setup(self) -> None:
        """Put back the state every set-up starts from (default: none)."""

    def warmup(self) -> List[Request]:
        raise NotImplementedError

    def request(self, index: int) -> Optional[Request]:
        """The ``index``-th timed request."""
        raise NotImplementedError

    def phase_indices(self, phase: int) -> range:
        """The request indices timed phase ``phase`` may use; each phase
        starts at a multiple of :attr:`cycle`."""
        span = 3 * 10**5
        return range(phase * span, (phase + 1) * span)

    # helpers -----------------------------------------------------------
    def _graph(self, name: str, n: int) -> GraphFile:
        """Write one LFR graph.

        Every graph is a fixed member of the family, keyed by workload
        and name; the workload seed picks the request seeds.  Which
        graphs a run happened to draw would otherwise move every timing
        by more than the bounds: one never-seen n=800 graph costs 0.2 to
        0.7 s to serve, depending on the graph.
        """
        graph = write_lfr(self.workdir, name, n, family_seed(self.name, name))
        self.graphs.append(graph)
        return graph

    @staticmethod
    def _by_path(graph: GraphFile, algorithm: str, seed: int, rid: str) -> Request:
        payload = {"id": rid, "graph": str(graph.path), "algorithm": algorithm, "seed": seed}
        return payload, (str(graph.path), algorithm, seed)

    def _by_fingerprint(
        self, graph: GraphFile, algorithm: str, seed: int, rid: str
    ) -> Request:
        payload = {
            "id": rid,
            "fingerprint": self.fingerprints[str(graph.path)],
            "algorithm": algorithm,
            "seed": seed,
        }
        return payload, (str(graph.path), algorithm, seed)


class ColdStart(Workload):
    """Store read path in set-up, full cold path per timed request."""

    name = "cold_start"

    @property
    def cycle(self) -> int:
        # Whole rounds over the base graphs: every window serves the
        # same mix of graph costs, however many rounds fit.
        return self.sizes.fresh_bases

    def prepare(self, phase_seconds: float, phases: int) -> None:
        self.stored = [self._graph(f"stored{i}", self.sizes.store_n) for i in range(3)]
        self.stored_seeds = self.seeds.draws(3)
        bases = [
            self._graph(f"base{i}", self.sizes.fresh_n)
            for i in range(self.sizes.fresh_bases)
        ]
        rounds = math.ceil(phase_seconds * self.sizes.fresh_per_second / len(bases)) + 1
        self.per_phase = rounds * len(bases)
        count = phases * self.per_phase
        # A never-seen file is a base graph under labels no other file
        # uses: new to the server (its fingerprint covers the labels),
        # the same work as its base, and far cheaper to write than a
        # new LFR graph.  Its seed comes from its base's small pool, so
        # its reference cover is its base's, shifted.
        # Each base graph is a class: its cost is 0.2-0.7 s, so the
        # median of the mix would jump between two bases' costs.
        self.classes = tuple(base.name for base in bases)
        self.base_of: Dict[str, str] = {}
        self.fresh: List[GraphFile] = [None] * count  # type: ignore[list-item]
        self.fresh_seeds = [0] * count
        for number, base in enumerate(bases):
            pool = self.seeds.draws(self.sizes.seeds_per_base)
            indices = range(number, count, len(bases))
            offsets = [(index + 1) * 10**6 for index in indices]
            written = write_relabelled(
                base, [(f"fresh{index}", offset) for index, offset in zip(indices, offsets)]
            )
            for index, offset, graph in zip(indices, offsets, written):
                self.fresh[index] = graph
                self.fresh_seeds[index] = pool[(index // len(bases)) % len(pool)]
                self.copies[str(graph.path)] = (str(base.path), offset)
                self.base_of[str(graph.path)] = base.name
        self.store_dir = self.workdir / "store"
        self.filled_store = self.workdir / "store-filled"

    def serve_args(self) -> List[str]:
        return ["--max-sessions", "3", "--store-dir", str(self.store_dir)]

    def class_of(self, key: Key) -> str:
        return self.base_of[key[0]]

    def fill(self, root: Path) -> List[Dict[str, Any]]:
        """An earlier server process answers each stored graph once."""
        requests = [
            self._by_path(graph, "oca", seed, f"fill-{graph.name}")
            for graph, seed in zip(self.stored, self.stored_seeds)
        ]
        request_path = self.workdir / "fill.jsonl"
        output_path = self.workdir / "fill-out.jsonl"
        request_path.write_text(
            "".join(json.dumps(payload) + "\n" for payload, _ in requests)
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", "--quiet",
                "--requests", str(request_path), "--output", str(output_path),
                *self.serve_args(),
            ],
            cwd=str(root), env=env, check=False, timeout=170,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        responses = [
            json.loads(line) for line in output_path.read_text().splitlines() if line
        ]
        records = []
        for (payload, key), response in zip(requests, responses):
            records.append({"id": payload["id"], "key": key, "response": response})
            if response.get("ok"):
                self.fingerprints[key[0]] = response["fingerprint"]
        if len(responses) != len(requests):
            records.extend(
                {"id": payload["id"], "key": key, "response": {"ok": False, "error": "no response"}}
                for payload, key in requests[len(responses):]
            )
        if self.store_dir.is_dir():
            shutil.copytree(self.store_dir, self.filled_store)
        return records

    def before_setup(self) -> None:
        """Every set-up restarts over the store exactly as the fill left it.

        A timed window saves its never-seen graphs and touches them last,
        so without this the next restart would pre-warm those instead of
        the three stored graphs its set-up asks for.
        """
        shutil.rmtree(self.store_dir, ignore_errors=True)
        if self.filled_store.is_dir():
            shutil.copytree(self.filled_store, self.store_dir)

    def warmup(self) -> List[Request]:
        return [
            self._by_fingerprint(graph, "oca", seed, f"setup-{graph.name}")
            for graph, seed in zip(self.stored, self.stored_seeds)
        ]

    def request(self, index: int) -> Optional[Request]:
        return self._by_path(self.fresh[index], "oca", self.fresh_seeds[index], f"t{index}")

    def phase_indices(self, phase: int) -> range:
        """Each phase gets its own never-seen graphs."""
        return range(phase * self.per_phase, (phase + 1) * self.per_phase)




class WarmMix(Workload):
    """Figure 5's regime: OCA, lfk, cfinder and CNM in turn, each on
    its own resident graph, from one connection."""

    name = "warm_mix"
    cycle = len(WARM_CLASSES)
    classes = WARM_CLASSES

    def prepare(self, phase_seconds: float, phases: int) -> None:
        sizes = {
            "oca": self.sizes.oca_n,
            "lfk": self.sizes.lfk_n,
            "cfinder": self.sizes.cfinder_n,
            "modularity_greedy": self.sizes.cnm_n,
        }
        self.by_class = {
            algorithm: self._graph(algorithm, sizes[algorithm])
            for algorithm in WARM_CLASSES
        }
        self.setup_seeds = dict(zip(WARM_CLASSES, self.seeds.draws(len(WARM_CLASSES))))
        # OCA's and LFK's cost moves by up to 2x with the seed (LFK:
        # 0.26-0.73 s at n=1400), so a class needs many seeds for its
        # median not to depend on which ones a run drew.  A fixed pool
        # per class keeps the reference covers to one per seed.
        self.pools = {
            algorithm: self.seeds.draws(self.sizes.seeds_per_class)
            for algorithm in WARM_CLASSES
        }

    def serve_args(self) -> List[str]:
        return ["--max-sessions", str(len(WARM_CLASSES))]  # all resident

    def warmup(self) -> List[Request]:
        return [
            self._by_path(graph, algorithm, self.setup_seeds[algorithm], f"setup-{algorithm}")
            for algorithm, graph in self.by_class.items()
        ]

    def request(self, index: int) -> Optional[Request]:
        algorithm = WARM_CLASSES[index % self.cycle]
        pool = self.pools[algorithm]
        seed = pool[(index // self.cycle) % len(pool)]
        return self._by_fingerprint(self.by_class[algorithm], algorithm, seed, f"t{index}")


WORKLOADS = {cls.name: cls for cls in (WarmMix, ColdStart)}
