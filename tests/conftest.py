"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import multiprocessing
import os
import random
import tempfile

import pytest
from hypothesis import strategies as st

from repro.graph import Graph
from repro.generators import (
    complete_graph,
    erdos_renyi,
    karate_club,
    path_graph,
    ring_of_cliques,
    two_cliques_bridged,
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def triangle() -> Graph:
    """K3."""
    return Graph(edges=[(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def square() -> Graph:
    """C4 (bipartite, lambda_min = -2)."""
    return Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def k5() -> Graph:
    """K5."""
    return complete_graph(5)


@pytest.fixture
def path5() -> Graph:
    """P5."""
    return path_graph(5)


@pytest.fixture
def karate():
    """Zachary's karate club with its two-faction ground truth."""
    return karate_club()


@pytest.fixture
def two_cliques():
    """Two 6-cliques sharing 2 nodes, with ground-truth cover."""
    return two_cliques_bridged(6, 2)


@pytest.fixture
def ring():
    """Five 5-cliques in a ring, with planted cover."""
    return ring_of_cliques(5, 5)


@pytest.fixture
def start_method():
    """``start_method(name)`` sets the default process start method for
    the rest of the test; the previous default is restored afterwards.

    Under ``fork`` a process pool inherits the driver's worker context;
    under ``spawn`` it serialises the context, so the engine saves the
    compiled graph as ``.npy`` files that its workers memory-map.
    """
    previous = multiprocessing.get_start_method(allow_none=True)

    def use(name: str) -> None:
        multiprocessing.set_start_method(name, force=True)

    yield use
    multiprocessing.set_start_method(previous, force=True)


def _record_engine_executors(monkeypatch, before_shutdown=None):
    """Swap the engine's ``ProcessPoolExecutor`` for a recording subclass.

    Returns the list every executor the engine constructs is appended
    to; ``before_shutdown(executor)``, when given, runs as each one
    starts to shut down, while its workers are still alive.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.engine import engine

    constructed = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            constructed.append(self)

        def shutdown(self, *args, **kwargs):
            if before_shutdown is not None:
                before_shutdown(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordedPool)
    return constructed


@pytest.fixture
def pool_executors(monkeypatch):
    """Every process pool executor the engine constructs during the
    test, in construction order."""
    return _record_engine_executors(monkeypatch)


def graph_exports():
    """The engine's graph export directories that exist right now."""
    root = tempfile.gettempdir()
    return {
        os.path.realpath(os.path.join(root, name))
        for name in os.listdir(root)
        if name.startswith("repro_graph_")
    }


@pytest.fixture
def worker_attaches(monkeypatch):
    """The graph export files engine workers were seen mapping.

    Every process pool the engine opens during the test is probed just
    before it shuts down: one live worker reports, through its
    ``/proc/<pid>/maps``, which files of a live export directory it has
    mapped.  The driver only writes those files and a ``spawn`` worker
    inherits no mapping from it, so a listed file is one the worker
    mapped itself.  One set of paths per pool, in shutdown order.
    """
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/<pid>/maps")
    seen = []

    def probe(pool):
        pid = pool.submit(os.getpid).result()
        with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
        mapped = {row[5].rstrip("\n") for row in fields if len(row) == 6}
        live = graph_exports()
        seen.append({path for path in mapped if os.path.dirname(path) in live})

    _record_engine_executors(monkeypatch, before_shutdown=probe)
    return seen


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def edge_lists(max_nodes: int = 12, max_edges: int = 40):
    """Strategy producing lists of (u, v) pairs with u != v."""
    node = st.integers(min_value=0, max_value=max_nodes - 1)
    pair = st.tuples(node, node).filter(lambda uv: uv[0] != uv[1])
    return st.lists(pair, max_size=max_edges)


def small_graphs(max_nodes: int = 12, max_edges: int = 40):
    """Strategy producing small Graph instances."""
    return edge_lists(max_nodes, max_edges).map(lambda edges: Graph(edges=edges))


def node_subsets(graph: Graph, rng_seed: int = 0):
    """A deterministic list of interesting node subsets of ``graph``."""
    nodes = list(graph.nodes())
    rng = random.Random(rng_seed)
    subsets = [set(nodes)] if nodes else []
    for size in range(1, min(len(nodes), 5) + 1):
        subsets.append(set(rng.sample(nodes, size)))
    return subsets


# ----------------------------------------------------------------------
# Registry shorthand
# ----------------------------------------------------------------------
def detect(algorithm, graph, seed=None, workers=None, **params):
    """One detection through the registry, covers in ``graph``'s labels.

    ``workers`` runs it on an engine with a pool of that size, closed on
    return; without it the request carries no engine and OCA runs
    inline.
    """
    from repro import DetectionRequest, ExecutionEngine, get_detector

    request = DetectionRequest(graph=graph, seed=seed, params=params)
    if workers is None:
        return get_detector(algorithm).detect(request)
    with ExecutionEngine(workers) as engine:
        request.engine = engine
        return get_detector(algorithm).detect(request)


def set_bron_kerbosch(graph):
    """Every maximal clique of a dict graph, by set-based Bron–Kerbosch.

    The test oracle for :mod:`repro.baselines.cliques`: the iterative
    pivoted enumeration (Tomita pivot: the vertex of ``P ∪ X`` with the
    most neighbours in ``P``) over the graph's own neighbour sets, with
    no compilation, ordering or bitsets.  Isolated nodes are one-node
    cliques.  Returns a list of frozensets, in discovery order.
    """
    adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes()}
    cliques = []
    stack = [(set(), set(adjacency), set())]  # frames of (R, P, X)
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            if r:
                cliques.append(frozenset(r))
            continue
        pivot = max(p | x, key=lambda node: len(adjacency[node] & p))
        for node in list(p - adjacency[pivot]):
            neighbours = adjacency[node]
            stack.append((r | {node}, p & neighbours, x & neighbours))
            p = p - {node}
            x = x | {node}
    return cliques


def pairwise_percolation(graph, k):
    """The published CFinder procedure, as an independent reference.

    Compares every pair of maximal cliques of size ``>= k`` (enumerated
    by :func:`set_bron_kerbosch`) and joins those sharing ``>= k - 1``
    nodes; each component's union is one community.  Quadratic in the
    clique count, so for small graphs only.
    """
    from itertools import combinations

    from repro.communities import Cover

    cliques = [set(c) for c in set_bron_kerbosch(graph) if len(c) >= k]
    parent = list(range(len(cliques)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in combinations(range(len(cliques)), 2):
        if len(cliques[i] & cliques[j]) >= k - 1:
            parent[find(i)] = find(j)
    groups = {}
    for i, clique in enumerate(cliques):
        groups.setdefault(find(i), set()).update(clique)
    return Cover(list(groups.values()))


# ----------------------------------------------------------------------
# Oracles and readers used only by the tests
# ----------------------------------------------------------------------
def to_networkx(graph):
    """``graph`` as a :class:`networkx.Graph`, for cross-validation."""
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


def degrees(graph):
    """A mapping of every node of ``graph`` to its degree."""
    return {node: graph.degree(node) for node in graph.nodes()}


def read_cover(source):
    """Read a cover written by ``write_cover`` (or the CLI) back in.

    ``source`` is a path or an open text stream with one community per
    line; integer-looking tokens become ``int``, ``#`` lines are skipped.
    """
    from pathlib import Path

    from repro.communities import Cover

    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as stream:
            return read_cover(stream)

    def canonical(token):
        try:
            return int(token)
        except ValueError:
            return token

    return Cover(
        [canonical(token) for token in line.split()]
        for line in source
        if line.strip() and not line.lstrip().startswith("#")
    )


def modularity(graph, partition):
    """Newman modularity ``Q = sum_c [e_c / m - (vol_c / 2m)^2]``.

    The independent formula the CNM kernel's reported modularity and
    networkx's are checked against.
    """
    m = graph.number_of_edges()
    q = 0.0
    for block in partition:
        volume = sum(graph.degree(node) for node in block)
        q += graph.edges_inside(block) / m - (volume / (2.0 * m)) ** 2
    return q


class ParkedDriftState:
    """The three-array community state the one-array
    :class:`~repro.core.state.ArrayCommunityState` replaced, frozen as
    its test oracle.

    ``member`` is a boolean mask.  ``frontier_score`` is exact on
    non-members and ``member_score`` exact on members; each move bumps
    both arrays over the whole neighbourhood, so the other half of each
    drifts from its ``+-OFFSET`` parking value by at most the degree,
    and is reset exactly when a node changes side.  ``argmax`` of
    ``frontier_score`` is the best addition, ``argmin`` of
    ``member_score`` the weakest member, lowest id first.
    """

    OFFSET = 2**30

    def __init__(self, graph, members=()):
        import numpy as np

        self.graph = graph
        n = graph.number_of_nodes()
        self.member = np.zeros(n, dtype=bool)
        self.frontier_score = np.zeros(n, dtype=np.int32)
        self.member_score = np.full(n, self.OFFSET, dtype=np.int32)
        self.size = 0
        self.internal_edges = 0
        self.volume = 0
        for node in sorted(set(int(node) for node in members)):
            self.add(node)

    @property
    def members(self):
        return [int(node) for node in self.member.nonzero()[0]]

    @property
    def frontier(self):
        import numpy as np

        scores = np.where(self.member, np.int32(0), self.frontier_score)
        return {int(node): int(scores[node]) for node in (scores > 0).nonzero()[0]}

    def internal_degree_of(self, node):
        assert self.member[node]
        return int(self.member_score[node])

    def best_frontier_node(self):
        if self.size == 0 or self.size == len(self.member):
            return None
        node = int(self.frontier_score.argmax())
        return node if self.frontier_score[node] > 0 else None

    def weakest_member(self):
        return None if self.size == 0 else int(self.member_score.argmin())

    def _bump(self, node, delta):
        row = self.graph.neighbors(node)
        self.frontier_score[row] += delta
        self.member_score[row] += delta

    def add(self, node):
        assert not self.member[node]
        gained = int(self.frontier_score[node])
        self.member[node] = True
        self.frontier_score[node] = -self.OFFSET
        self.member_score[node] = gained
        self.size += 1
        self.internal_edges += gained
        self.volume += int(self.graph.degrees[node])
        self._bump(node, 1)

    def remove(self, node):
        assert self.member[node]
        lost = int(self.member_score[node])
        self.member[node] = False
        self.frontier_score[node] = lost
        self.member_score[node] = self.OFFSET
        self.size -= 1
        self.internal_edges -= lost
        self.volume -= int(self.graph.degrees[node])
        self._bump(node, -1)

    def value_if_added(self, node, fitness):
        return fitness.value(
            self.size + 1,
            self.internal_edges + int(self.frontier_score[node]),
            self.volume + int(self.graph.degrees[node]),
        )

    def value_if_removed(self, node, fitness):
        return fitness.value(
            self.size - 1,
            self.internal_edges - int(self.member_score[node]),
            self.volume - int(self.graph.degrees[node]),
        )


def frozen_laplacian_value(size, internal_edges, c):
    """The directed Laplacian's closed form, frozen as the bit-level
    oracle of :func:`~repro.core.fitness.directed_laplacian_value` and
    of the growth loop's table-based values."""
    import math

    if size == 0:
        return 0.0
    if size == 1:
        return 1.0
    root = math.sqrt(size * (size - 1))
    return size - root + 2.0 * c * internal_edges * (1.0 - (size - 2) / root)


def _frozen_value(fitness, size, internal_edges, volume):
    from repro.core import DirectedLaplacianFitness

    if isinstance(fitness, DirectedLaplacianFitness):
        return frozen_laplacian_value(size, internal_edges, fitness.c)
    return fitness.value(size, internal_edges, volume)


def oracle_grow_community(
    graph, initial_members, fitness, max_steps=None, allow_removal=True
):
    """The greedy add/remove search as it stood before the per-size term
    tables, frozen as the oracle of
    :func:`~repro.core.growth.grow_community`.

    It runs on :class:`ParkedDriftState`, scores every move through the
    fitness (the Laplacian through :func:`frozen_laplacian_value`), and
    returns ``(members, fitness_value, steps, additions, removals,
    converged)``.  A monotone fitness takes the lowest-id best frontier
    node and weakest member; any other fitness scans the frontier and
    the members in ascending id order.
    """
    eps = 1e-12
    state = ParkedDriftState(graph, initial_members)
    if max_steps is None:
        max_steps = 4 * graph.number_of_nodes() + 16
    monotone = bool(getattr(fitness, "monotone_in_internal_edges", False))

    def value_if_added(node):
        return _frozen_value(
            fitness,
            state.size + 1,
            state.internal_edges + int(state.frontier_score[node]),
            state.volume + int(graph.degrees[node]),
        )

    def value_if_removed(node):
        return _frozen_value(
            fitness,
            state.size - 1,
            state.internal_edges - int(state.member_score[node]),
            state.volume - int(graph.degrees[node]),
        )

    current = _frozen_value(fitness, state.size, state.internal_edges, state.volume)
    additions = removals = steps = 0
    converged = False
    while steps < max_steps:
        add_node = remove_node = None
        add_value = remove_value = float("-inf")
        if monotone:
            add_node = state.best_frontier_node()
            if add_node is not None:
                add_value = value_if_added(add_node)
            if allow_removal and state.size > 1:
                remove_node = state.weakest_member()
                remove_value = value_if_removed(remove_node)
        else:
            for node in state.frontier:
                value = value_if_added(node)
                if value > add_value:
                    add_node, add_value = node, value
            if allow_removal and state.size > 1:
                for node in state.members:
                    value = value_if_removed(node)
                    if value > remove_value:
                        remove_node, remove_value = node, value
        best_value = max(add_value, remove_value)
        if best_value <= current + eps:
            converged = True
            break
        if add_value >= remove_value:
            state.add(add_node)
            additions += 1
        else:
            state.remove(remove_node)
            removals += 1
        current = best_value
        steps += 1
    return (
        frozenset(state.members), current, steps, additions, removals, converged
    )


def oracle_lfk_values(alpha, internal_edges, volumes):
    """LFK's fitness ``2E / V**alpha`` over int64 stat arrays, 0 where
    ``V == 0``, with the scalar ``**`` per element off ``alpha == 1``."""
    import numpy as np

    positive = volumes > 0
    if alpha == 1.0:
        denominator = volumes
    else:
        denominator = np.array([volume**alpha for volume in volumes.tolist()])
    return np.divide(
        2 * internal_edges, denominator, out=np.zeros(len(volumes)), where=positive
    )


def oracle_natural_community(compiled, node, alpha=1.0, max_steps=None, eps=1e-12):
    """LFK's natural community as it stood before the dense addition
    pass, frozen as the oracle of
    :func:`~repro.baselines.lfk._natural_community_ids`.

    Step A scores the frontier only and runs the eps-chain over every
    improver in ascending id order; step B removes the first improving
    member of the id-ordered snapshot and rescores the rest.  It runs
    on :class:`ParkedDriftState` and returns ascending member ids.
    """
    import numpy as np

    from repro.core import LFKFitness

    fitness = LFKFitness(alpha=alpha)
    degrees = compiled.degrees.astype(np.int64)
    state = ParkedDriftState(compiled, [node])
    if max_steps is None:
        max_steps = 4 * compiled.number_of_nodes() + 16

    def current_value():
        return fitness.value(state.size, state.internal_edges, state.volume)

    steps = 0
    while steps < max_steps:
        current = current_value()
        frontier = state.frontier
        best_node = None
        if frontier:
            ids = np.array(sorted(frontier), dtype=np.int64)
            gains = np.array([frontier[i] for i in ids.tolist()], dtype=np.int64)
            values = oracle_lfk_values(
                alpha, state.internal_edges + gains, state.volume + degrees[ids]
            )
            best_value = current
            for position in (values > current + eps).nonzero()[0]:
                value = float(values[position])
                if value > best_value + eps:
                    best_value = value
                    best_node = int(ids[position])
        if best_node is None:
            break
        state.add(best_node)
        steps += 1
        removed = True
        while removed and steps < max_steps and state.size > 1:
            removed = False
            current = current_value()
            snapshot = np.array(state.members, dtype=np.int64)
            position = 0
            while position < len(snapshot) and state.size > 1:
                tail = snapshot[position:]
                losses = state.member_score[tail].astype(np.int64)
                values = oracle_lfk_values(
                    alpha, state.internal_edges - losses, state.volume - degrees[tail]
                )
                better = (values > current + eps).nonzero()[0]
                if better.size == 0:
                    break
                index = int(better[0])
                state.remove(int(tail[index]))
                steps += 1
                current = float(values[index])
                removed = True
                position += index + 1
    return np.array(state.members, dtype=np.int64)
