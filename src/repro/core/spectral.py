"""Spectral routines: the power method, from scratch.

Section II of the paper fixes the inner-product parameter of the virtual
vector representation at ``c = -1/lambda_min`` with ``lambda_min`` the most
negative adjacency eigenvalue, and notes "this value can be efficiently
calculated using the well-known power method".  This module implements
exactly that:

* :func:`power_method` — plain power iteration with Rayleigh-quotient
  convergence control, on any matrix given as a matvec callable.
* :func:`lambda_max` — dominant adjacency eigenvalue.  For a graph with at
  least one edge the adjacency spectrum's largest-modulus eigenvalue is
  the (non-negative) Perron root, so unshifted iteration suffices.
* :func:`lambda_min` — most negative adjacency eigenvalue, via power
  iteration on the shifted matrix ``A - lambda_max * I`` whose
  largest-modulus eigenvalue is ``lambda_min - lambda_max``.
* :func:`lambda_min_lanczos` — the same quantity through
  ``scipy.sparse.linalg.eigsh`` (implicitly restarted Lanczos), the
  default behind ``spectral_solver``.  One sparse solve replaces the
  two chained power iterations, which dominated the first detect on a
  fresh graph (see BENCH_serving.json).

Dense eigensolver cross-checks live in the test-suite, not here: the whole
point of the iterative solvers is to avoid materialising anything dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .._rng import SeedLike, as_numpy_rng
from ..errors import ConvergenceError
from ..graph import Graph, adjacency_with_index

__all__ = [
    "PowerMethodResult",
    "power_method",
    "lambda_max",
    "lambda_min",
    "lambda_min_lanczos",
    "adjacency_extreme_eigenvalues",
]

Matvec = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PowerMethodResult:
    """Outcome of a power iteration.

    Attributes
    ----------
    eigenvalue:
        The converged Rayleigh quotient.
    eigenvector:
        The unit-norm iterate at convergence.
    iterations:
        Iterations actually performed.
    residual:
        ``||A x - eigenvalue x||_2`` at the final iterate.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float


def power_method(
    matvec: Matvec,
    n: int,
    tol: float = 1e-9,
    max_iterations: int = 5000,
    seed: SeedLike = None,
    require_convergence: bool = True,
) -> PowerMethodResult:
    """Power iteration for the largest-modulus eigenvalue of an ``n x n``
    symmetric operator given by ``matvec``.

    The start vector is random (seeded via ``seed``) to avoid pathological
    orthogonality to the dominant eigenvector.  Convergence is declared
    when the residual ``||A x - theta x||`` drops below ``tol * max(1,
    |theta|)``.  If the budget runs out and ``require_convergence`` is
    true, :class:`~repro.errors.ConvergenceError` is raised; otherwise the
    best iterate is returned as-is.
    """
    if n <= 0:
        raise ValueError(f"operator dimension must be positive, got {n}")
    rng = as_numpy_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    theta = 0.0
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        y = matvec(x)
        theta = float(np.dot(x, y))
        residual = float(np.linalg.norm(y - theta * x))
        if residual <= tol * max(1.0, abs(theta)):
            return PowerMethodResult(theta, x, iteration, residual)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            # x lies in the kernel; the dominant eigenvalue along this
            # start vector is exactly 0.
            return PowerMethodResult(0.0, x, iteration, 0.0)
        x = y / norm
    if require_convergence:
        raise ConvergenceError(
            f"power method did not reach tol={tol} in {max_iterations} iterations "
            f"(residual={residual:.3e})",
            iterations=max_iterations,
            residual=residual,
        )
    return PowerMethodResult(theta, x, max_iterations, residual)


def lambda_max(
    graph: Graph,
    tol: float = 1e-9,
    max_iterations: int = 5000,
    seed: SeedLike = None,
    require_convergence: bool = True,
) -> float:
    """The largest adjacency eigenvalue of ``graph``.

    Zero for edgeless graphs (the adjacency matrix is the zero matrix).

    Iterates on ``A + d_max I`` rather than ``A`` itself: on bipartite
    graphs ``lambda_min = -lambda_max``, so the unshifted iteration
    oscillates between the two extreme eigenspaces and never converges.
    The shift makes the spectrum non-negative with the Perron root
    strictly dominant in modulus.
    """
    if graph.number_of_edges() == 0:
        return 0.0
    adjacency, _ = adjacency_with_index(graph)
    max_degree = max(graph.degree(node) for node in graph.nodes())
    shift = float(max_degree)

    def shifted_matvec(x: np.ndarray) -> np.ndarray:
        return adjacency.dot(x) + shift * x

    result = power_method(
        shifted_matvec,
        graph.number_of_nodes(),
        tol=tol,
        max_iterations=max_iterations,
        seed=seed,
        require_convergence=require_convergence,
    )
    return result.eigenvalue - shift


def lambda_min(
    graph: Graph,
    tol: float = 1e-9,
    max_iterations: int = 5000,
    seed: SeedLike = None,
    require_convergence: bool = True,
) -> float:
    """The most negative adjacency eigenvalue of ``graph``.

    Computed by shifting: the spectrum of ``B = A - lambda_max I`` lies in
    ``[lambda_min - lambda_max, 0]``, so power iteration on ``B`` converges
    to ``lambda_min - lambda_max``; adding the shift back recovers
    ``lambda_min``.  Zero for edgeless graphs; any graph with at least one
    edge has ``lambda_min <= -1``.
    """
    if graph.number_of_edges() == 0:
        return 0.0
    adjacency, _ = adjacency_with_index(graph)
    shift = lambda_max(
        graph,
        tol=tol,
        max_iterations=max_iterations,
        seed=seed,
        require_convergence=require_convergence,
    )

    def shifted_matvec(x: np.ndarray) -> np.ndarray:
        return adjacency.dot(x) - shift * x

    result = power_method(
        shifted_matvec,
        graph.number_of_nodes(),
        tol=tol,
        max_iterations=max_iterations,
        seed=seed,
        require_convergence=require_convergence,
    )
    value = result.eigenvalue + shift
    # lambda_min of a graph with an edge is at most -1 (interlacing with
    # the K2 subgraph); clamp numerical noise above that bound.
    return min(value, -1.0)


def lambda_min_lanczos(
    graph: Graph,
    tol: float = 1e-9,
    max_iterations: int = 5000,
    seed: SeedLike = None,
    require_convergence: bool = True,
) -> float:
    """The most negative adjacency eigenvalue, via restarted Lanczos.

    Semantically interchangeable with :func:`lambda_min` (same clamping,
    same edgeless short-circuit) but resolved by
    ``scipy.sparse.linalg.eigsh(which="SA")`` in one sparse solve
    instead of two chained power iterations — typically several times
    faster on the LFR family at serving scale.  Values agree with the
    power method to within the tolerance, which is far below anything
    that can flip a greedy comparison (``c`` only scales the fitness).

    Falls back to :func:`lambda_min` for graphs too small for a Lanczos
    basis (``n < 3``) and, with a degenerate start-vector failure, on
    :class:`scipy.sparse.linalg.ArpackNoConvergence` when
    ``require_convergence`` is false.
    """
    if graph.number_of_edges() == 0:
        return 0.0
    n = graph.number_of_nodes()
    if n < 3:
        # eigsh needs k < n and a non-trivial Krylov space; the power
        # method is instant at this size anyway.
        return lambda_min(
            graph,
            tol=tol,
            max_iterations=max_iterations,
            seed=seed,
            require_convergence=require_convergence,
        )
    try:
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh
    except ImportError as error:  # pragma: no cover - scipy is a hard dep
        raise ConvergenceError(
            f"spectral_solver='lanczos' requires scipy ({error}); "
            "use spectral_solver='power'",
            iterations=0,
            residual=float("inf"),
        ) from error
    adjacency, _ = adjacency_with_index(graph)
    if adjacency.dtype != np.float64:  # normally already float64: no copy
        adjacency = adjacency.astype(np.float64)
    # Deterministic start vector: like the power method, any start
    # converges to the same eigenvalue within tolerance, but pinning it
    # keeps the resolved value a pure function of (graph, tol, budget).
    rng = as_numpy_rng(seed)
    v0 = rng.standard_normal(graph.number_of_nodes())
    try:
        values = eigsh(
            adjacency,
            k=1,
            which="SA",
            tol=tol,
            maxiter=max_iterations,
            v0=v0,
            return_eigenvectors=False,
        )
        value = float(values[0])
    except ArpackNoConvergence as error:
        if require_convergence or len(error.eigenvalues) == 0:
            raise ConvergenceError(
                f"Lanczos (eigsh) did not reach tol={tol} in "
                f"{max_iterations} iterations",
                iterations=max_iterations,
                residual=float("inf"),
            ) from error
        value = float(error.eigenvalues[0])
    # Same clamp as lambda_min: a graph with an edge has lambda_min <= -1.
    return min(value, -1.0)


def adjacency_extreme_eigenvalues(
    graph: Graph,
    tol: float = 1e-9,
    max_iterations: int = 5000,
    seed: SeedLike = None,
) -> Tuple[float, float]:
    """Both spectral extremes ``(lambda_min, lambda_max)`` in one call."""
    return (
        lambda_min(graph, tol=tol, max_iterations=max_iterations, seed=seed),
        lambda_max(graph, tol=tol, max_iterations=max_iterations, seed=seed),
    )
