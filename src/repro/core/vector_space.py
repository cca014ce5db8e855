"""The virtual vector representation of Section II.

Definition 1 of the paper maps each node to a unit vector such that
adjacent nodes have inner product ``c`` (``0 <= c < 1``) and non-adjacent
nodes are orthogonal.  Such a representation exists precisely when the
Gram matrix ``G = I + c A`` is positive semidefinite, i.e. when
``c <= -1/lambda_min``; the paper uses the largest admissible value
because larger ``c`` separates communities more sharply (Example 2).

The representation is *virtual*: the algorithm never materialises the
vectors.  The squared length of a subset's sum vector collapses to a
combinatorial quantity::

    phi(S) = ||sum_{i in S} v_i||^2
           = sum_i <v_i, v_i> + 2 * sum_{i<j in S} <v_i, v_j>
           = |S| + 2 c E_in(S)

where ``E_in(S)`` counts graph edges inside ``S``.  :func:`phi` evaluates
that formula; :meth:`VirtualVectorRepresentation.explicit_vectors`
materialises actual vectors for *small* graphs so the tests can verify the
closed form against honest linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Hashable, Optional

import numpy as np

from .._rng import SeedLike
from ..errors import ConfigurationError
from ..graph import Graph, adjacency_with_index, compile_graph
from ..graph.csr import CompiledGraph
from .spectral import lambda_min, lambda_min_lanczos

__all__ = [
    "MAX_C_MARGIN",
    "SPECTRAL_SOLVERS",
    "DEFAULT_SPECTRAL_SOLVER",
    "admissible_c",
    "shared_admissible_c",
    "phi",
    "VirtualVectorRepresentation",
]

Node = Hashable

#: Definition 1 requires ``c < 1`` strictly; when the spectral bound lands
#: exactly at 1 (complete graphs, single edges: ``lambda_min = -1``) we
#: step inside the open interval by this margin.
MAX_C_MARGIN = 1e-9

#: Fixed seed for the solvers' start vectors behind
#: :func:`shared_admissible_c`.  Any start vector converges to the same
#: eigenvalue (within tolerance); pinning it makes the resolved ``c`` a
#: pure function of ``(graph, solver, tol, max_iterations)`` — the
#: property that lets one cached value serve every caller, every user
#: seed, and every entry point while keeping covers byte-identical
#: between them.
SPECTRAL_SEED = 0x5EED

#: Accepted values for every ``spectral_solver`` knob: the paper's power
#: method, and restarted Lanczos via scipy's ``eigsh``.
SPECTRAL_SOLVERS = ("power", "lanczos")

#: The solver every entry point uses unless told otherwise.  Lanczos
#: resolves ``c`` in 4–7 ms where the power method takes 58–386 ms on
#: n = 800 LFR graphs, and a cold served request is mostly this step;
#: ``spectral_solver="power"`` still runs the paper's method.
DEFAULT_SPECTRAL_SOLVER = "lanczos"


def admissible_c(
    graph: Graph,
    tol: float = 1e-6,
    max_iterations: int = 10000,
    seed: SeedLike = None,
    solver: str = "power",
) -> float:
    """The largest admissible inner-product value ``c = -1/lambda_min``.

    Returns 0 for edgeless graphs (every pair is non-adjacent, so the
    representation is an orthonormal family and ``c`` is irrelevant).  The
    result is clamped into ``[0, 1)`` as Definition 1 requires.

    The tolerance is deliberately loose: ``c`` only scales the fitness
    function, so errors around 1e-6 cannot flip any greedy comparison
    that matters, while tight tolerances make the shifted power iteration
    needlessly slow on spectra with clustered extremes.  ``solver``
    selects how ``lambda_min`` is resolved (:data:`SPECTRAL_SOLVERS`);
    the two agree to about 1e-4, not bit for bit.
    """
    if solver not in SPECTRAL_SOLVERS:
        raise ConfigurationError(
            f"spectral solver must be one of {SPECTRAL_SOLVERS}, got {solver!r}"
        )
    resolve = lambda_min_lanczos if solver == "lanczos" else lambda_min
    smallest = resolve(
        graph,
        tol=tol,
        max_iterations=max_iterations,
        seed=seed,
        require_convergence=False,
    )
    if smallest >= 0.0:
        return 0.0
    c = -1.0 / smallest
    return min(c, 1.0 - MAX_C_MARGIN)


def shared_admissible_c(
    graph,
    tol: float = 1e-6,
    max_iterations: int = 10000,
    solver: str = DEFAULT_SPECTRAL_SOLVER,
) -> "tuple[float, bool]":
    """The admissible ``c``, cached on the graph's compiled form.

    Returns ``(c, cache_hit)``.  The value is resolved with the fixed
    :data:`SPECTRAL_SEED` start vector, so it depends only on the graph
    and the tolerance parameters — never on the caller's RNG — and is
    therefore safe to share across repeated detections, worker
    processes (the cache pickles with the compiled graph), and the
    session serving layer.  Any graph mutation invalidates the compiled
    form and with it the cached spectrum.

    The cache key is ``("admissible_c", solver, tol, max_iterations)``.
    The two solvers agree only to about 1e-4, and ``c`` decides every
    greedy accept or reject, so each solver keeps a slot of its own: a
    power-method request after a Lanczos one solves again rather than
    reusing the Lanczos value, and covers stay a pure function of
    (graph, seed, batch_size, config) whatever ran on the graph before.

    Accepts a :class:`~repro.graph.Graph` (compiled on first use, which
    every detection pays anyway) or a
    :class:`~repro.graph.CompiledGraph`.  Exotic read-only backends fall
    through to an uncached :func:`admissible_c` call.
    """
    if isinstance(graph, CompiledGraph):
        compiled: Optional[CompiledGraph] = graph
    elif isinstance(graph, Graph):
        compiled = compile_graph(graph)
    else:
        compiled = None
    key = ("admissible_c", solver, tol, max_iterations)
    if compiled is not None:
        cached = compiled.spectral_cache.get(key)
        if cached is not None:
            return cached, True
    c = admissible_c(
        graph,
        tol=tol,
        max_iterations=max_iterations,
        seed=SPECTRAL_SEED,
        solver=solver,
    )
    if compiled is not None:
        compiled.spectral_cache[key] = c
    return c, False


def phi(graph: Graph, members: AbstractSet[Node], c: float) -> float:
    """The squared sum-vector length ``phi(S) = |S| + 2 c E_in(S)``."""
    if not 0.0 <= c < 1.0:
        raise ConfigurationError(f"c must lie in [0, 1), got {c}")
    return len(members) + 2.0 * c * graph.edges_inside(members)


@dataclass
class VirtualVectorRepresentation:
    """A concrete handle on the virtual representation of a graph.

    Stores the graph and its ``c``; offers both the implicit ``phi``
    evaluation the algorithm uses and an explicit small-graph
    materialisation for validation.

    Parameters
    ----------
    graph:
        The underlying simple graph.
    c:
        Inner-product value; computed spectrally when omitted.
    """

    graph: Graph
    c: Optional[float] = None
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.c is None:
            self.c = admissible_c(self.graph, seed=self.seed)
        if not 0.0 <= self.c < 1.0:
            raise ConfigurationError(f"c must lie in [0, 1), got {self.c}")

    # ------------------------------------------------------------------
    def phi(self, members: AbstractSet[Node]) -> float:
        """``phi(S)`` for a node subset, evaluated combinatorially."""
        return phi(self.graph, members, self.c)

    def gram_entry(self, u: Node, v: Node) -> float:
        """The inner product ``<v_u, v_v>`` prescribed by Definition 1."""
        if u == v:
            return 1.0
        return self.c if self.graph.has_edge(u, v) else 0.0

    def gram_matrix(self) -> np.ndarray:
        """The dense Gram matrix ``I + c A`` (small graphs only)."""
        adjacency, _ = adjacency_with_index(self.graph)
        n = self.graph.number_of_nodes()
        return np.eye(n) + self.c * adjacency.toarray()

    def explicit_vectors(self) -> np.ndarray:
        """Materialised unit vectors, one row per node in insertion order.

        Factorises the Gram matrix through its eigendecomposition,
        clipping the tiny negative eigenvalues that appear when ``c`` sits
        exactly at the admissibility boundary.  Intended for validation on
        small graphs; the algorithm itself never calls this.
        """
        gram = self.gram_matrix()
        eigenvalues, eigenvectors = np.linalg.eigh(gram)
        clipped = np.clip(eigenvalues, 0.0, None)
        return eigenvectors * np.sqrt(clipped)

    def phi_explicit(self, members: AbstractSet[Node]) -> float:
        """``phi(S)`` evaluated by actually summing materialised vectors.

        Exists purely to cross-check :meth:`phi` in tests.
        """
        vectors = self.explicit_vectors()
        index = self.graph.node_index()
        total = np.zeros(vectors.shape[1])
        for node in members:
            total += vectors[index[node]]
        return float(np.dot(total, total))
