"""Unit tests for the power method against closed-form spectra."""

import math

import numpy as np
import pytest

from repro.core import lambda_max, lambda_min, power_method, adjacency_extreme_eigenvalues
from repro.errors import ConvergenceError
from repro.graph import Graph, adjacency_with_index
from repro.generators import complete_graph, cycle_graph, path_graph, star_graph


class TestPowerMethod:
    def test_diagonal_matrix(self):
        diag = np.diag([3.0, 1.0, -2.0])
        result = power_method(diag.dot, 3, seed=0)
        assert result.eigenvalue == pytest.approx(3.0, abs=1e-6)

    def test_dominant_negative_eigenvalue(self):
        diag = np.diag([-5.0, 1.0, 2.0])
        result = power_method(diag.dot, 3, seed=0)
        assert abs(result.eigenvalue) == pytest.approx(5.0, abs=1e-6)

    def test_zero_matrix(self):
        zero = np.zeros((4, 4))
        result = power_method(zero.dot, 4, seed=0)
        assert result.eigenvalue == pytest.approx(0.0)

    def test_eigenvector_residual_small(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        result = power_method(matrix.dot, 2, seed=0)
        assert result.residual <= 1e-8

    def test_convergence_error_raised(self):
        # Two equal-modulus opposite eigenvalues never converge.
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConvergenceError):
            power_method(matrix.dot, 2, max_iterations=50, seed=3)

    def test_no_convergence_requirement_returns_best(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = power_method(
            matrix.dot, 2, max_iterations=50, seed=3, require_convergence=False
        )
        assert result.iterations == 50

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            power_method(lambda x: x, 0)


class TestGraphSpectra:
    def test_lambda_max_complete_graph(self):
        # K_n has lambda_max = n - 1.
        assert lambda_max(complete_graph(7), seed=0) == pytest.approx(6.0, abs=1e-6)

    def test_lambda_min_complete_graph(self):
        # K_n has lambda_min = -1.
        assert lambda_min(complete_graph(7), seed=0) == pytest.approx(-1.0, abs=1e-6)

    def test_lambda_min_single_edge(self):
        g = Graph(edges=[(0, 1)])
        assert lambda_min(g, seed=0) == pytest.approx(-1.0, abs=1e-6)

    def test_lambda_max_star(self):
        # Star with l leaves: lambda_max = sqrt(l).
        assert lambda_max(star_graph(9), seed=0) == pytest.approx(3.0, abs=1e-6)

    def test_lambda_min_star(self):
        assert lambda_min(star_graph(9), seed=0) == pytest.approx(-3.0, abs=1e-6)

    def test_lambda_min_even_cycle(self):
        # Even cycles are bipartite: lambda_min = -2.
        assert lambda_min(cycle_graph(8), seed=0) == pytest.approx(-2.0, abs=1e-5)

    def test_lambda_min_path(self):
        # P_n: lambda_min = -2 cos(pi / (n+1)).
        expected = -2 * math.cos(math.pi / 6)
        assert lambda_min(path_graph(5), seed=0) == pytest.approx(expected, abs=1e-6)

    def test_edgeless_graph_spectra(self):
        g = Graph(nodes=range(4))
        assert lambda_max(g) == 0.0
        assert lambda_min(g) == 0.0

    def test_extremes_tuple(self):
        low, high = adjacency_extreme_eigenvalues(complete_graph(5), seed=0)
        assert low == pytest.approx(-1.0, abs=1e-6)
        assert high == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_eigensolver(self, seed):
        from repro.generators import erdos_renyi

        g = erdos_renyi(24, 0.3, seed=seed)
        if g.number_of_edges() == 0:
            return
        dense = adjacency_with_index(g)[0].toarray()
        eigenvalues = np.linalg.eigvalsh(dense)
        assert lambda_max(g, seed=0) == pytest.approx(eigenvalues[-1], abs=1e-5)
        assert lambda_min(g, seed=0) == pytest.approx(
            min(eigenvalues[0], -1.0), abs=1e-5
        )


class TestLanczos:
    """lambda_min_lanczos: same quantity as lambda_min, different solver."""

    def test_lambda_min_lanczos_complete_graph(self):
        from repro.core import lambda_min_lanczos

        # K_n: lambda_min = -1 exactly (clamped).
        assert lambda_min_lanczos(complete_graph(6), seed=0) == pytest.approx(
            -1.0, abs=1e-6
        )

    def test_lambda_min_lanczos_cycle(self):
        from repro.core import lambda_min_lanczos

        assert lambda_min_lanczos(cycle_graph(8), seed=0) == pytest.approx(
            -2.0, abs=1e-5
        )

    def test_edgeless_and_tiny_graphs(self):
        from repro.core import lambda_min_lanczos

        g = Graph(nodes=range(4))
        assert lambda_min_lanczos(g) == 0.0
        # n < 3 falls back to the power method internally.
        pair = Graph()
        pair.add_edge(0, 1)
        assert lambda_min_lanczos(pair, seed=0) == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_eigensolver(self, seed):
        from repro.core import lambda_min_lanczos
        from repro.generators import erdos_renyi

        g = erdos_renyi(24, 0.3, seed=seed)
        if g.number_of_edges() == 0:
            return
        dense = adjacency_with_index(g)[0].toarray()
        eigenvalues = np.linalg.eigvalsh(dense)
        assert lambda_min_lanczos(g, tol=1e-9, seed=0) == pytest.approx(
            min(eigenvalues[0], -1.0), abs=1e-5
        )

    def test_solvers_agree_on_admissible_c(self):
        from repro.core import admissible_c
        from repro.generators import ring_of_cliques

        g, _ = ring_of_cliques(5, 5)
        by_power = admissible_c(g, solver="power")
        by_lanczos = admissible_c(g, solver="lanczos")
        assert by_lanczos == pytest.approx(by_power, abs=1e-4)

    def test_lanczos_needs_far_fewer_sparse_products(self, monkeypatch):
        """Why a cold Lanczos ``c`` is cheaper than the power method's:
        one Krylov solve against two chained power iterations, counted
        in adjacency products on an LFR graph."""
        from scipy.sparse.linalg import LinearOperator

        import repro.core.spectral as spectral
        from repro.core import admissible_c
        from repro.generators import LFRParams, lfr_graph

        params = LFRParams(
            n=300, mu=0.3, average_degree=12.0, max_degree=30,
            min_community=15, max_community=30,
        )
        graph = lfr_graph(params, seed=2).graph
        products = []
        build = spectral.adjacency_with_index

        def counting(g):
            adjacency, index = build(g)

            def matvec(x):
                products[-1] += 1
                return adjacency @ x

            operator = LinearOperator(
                adjacency.shape, matvec=matvec, dtype=adjacency.dtype
            )
            return operator, index

        monkeypatch.setattr(spectral, "adjacency_with_index", counting)
        values = []
        for solver in ("power", "lanczos"):
            products.append(0)
            values.append(admissible_c(graph.copy(), solver=solver))
        power, lanczos = products
        assert values[1] == pytest.approx(values[0], abs=1e-6)
        assert 0 < 5 * lanczos < power

    def test_unknown_solver_rejected(self):
        from repro.core import admissible_c
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="solver"):
            admissible_c(complete_graph(4), solver="qr")

    def test_each_solver_keeps_its_own_cache_slot(self):
        from repro.core import admissible_c, shared_admissible_c
        from repro.core.vector_space import SPECTRAL_SEED
        from repro.generators import ring_of_cliques

        g, _ = ring_of_cliques(4, 5)
        by_lanczos, hit1 = shared_admissible_c(g, solver="lanczos")
        by_power, hit2 = shared_admissible_c(g, solver="power")
        again, hit3 = shared_admissible_c(g, solver="power")
        assert (hit1, hit2, hit3) == (False, False, True)
        assert by_power == again == admissible_c(
            g, solver="power", seed=SPECTRAL_SEED
        )
        assert set(g._compiled.spectral_cache) == {
            ("admissible_c", "lanczos", 1e-6, 10000),
            ("admissible_c", "power", 1e-6, 10000),
        }

    def test_default_solver_is_lanczos(self):
        from repro.core import DEFAULT_SPECTRAL_SOLVER, OCAConfig, shared_admissible_c
        from repro.generators import ring_of_cliques

        g, _ = ring_of_cliques(4, 5)
        assert DEFAULT_SPECTRAL_SOLVER == "lanczos"
        assert OCAConfig().spectral_solver == "lanczos"
        shared_admissible_c(g)
        assert list(g._compiled.spectral_cache) == [
            ("admissible_c", "lanczos", 1e-6, 10000)
        ]
