"""Smoke + shape tests for the figure experiments at tiny scale.

These run each experiment end-to-end with reduced parameters so the suite
stays fast; the real scales live in benchmarks/.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
    run_wikipedia,
)


class TestTable1:
    def test_rows_and_render(self):
        result = run_table1(lfr_n=200, daisy_flowers=2, wikipedia_n=500, seed=0)
        assert [r.name for r in result.rows] == [
            "LFR-benchmark",
            "Daisy",
            "Wikipedia (synthetic)",
        ]
        assert all(r.nodes > 0 and r.edges > 0 for r in result.rows)
        rendered = result.render()
        assert "LFR-benchmark" in rendered
        assert "paper #nodes" in rendered


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure2(
            mus=(0.2, 0.6), n=300, algorithms=("OCA", "LFK"), seed=0
        )

    def test_series_per_algorithm(self, result):
        assert {s.name for s in result.series} == {"OCA", "LFK"}

    def test_theta_in_bounds(self, result):
        for series in result.series:
            assert all(0.0 <= y <= 1.0 for y in series.ys)

    def test_low_mixing_beats_high_mixing(self, result):
        oca = result.series_by_name("OCA")
        assert oca.ys[0] > oca.ys[-1]

    def test_render(self, result):
        assert "mu" in result.render()

    def test_unknown_series_raises(self, result):
        with pytest.raises(KeyError):
            result.series_by_name("CFinder")


class TestFigure3:
    def test_tiny_sweep(self):
        result = run_figure3(flower_counts=(2, 3), algorithms=("OCA",), seed=0)
        series = result.series_by_name("OCA")
        assert len(series.xs) == 2
        assert series.xs[0] == 120
        assert all(0.0 <= y <= 1.0 for y in series.ys)
        assert "nodes" in result.render()


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure4(seed=0)

    def test_all_algorithms_reported(self, result):
        assert set(result.matches) == {"OCA", "LFK", "CFinder"}

    def test_all_parts_matched(self, result):
        for parts in result.matches.values():
            assert [p.part for p in parts] == [
                "petal 1", "petal 2", "petal 3", "petal 4", "core",
            ]

    def test_oca_separates_parts(self, result):
        assert result.separates_parts("OCA")

    def test_mean_rho_bounds(self, result):
        for name in result.matches:
            assert 0.0 <= result.mean_rho(name) <= 1.0

    def test_render(self, result):
        rendered = result.render()
        assert "planted part" in rendered
        assert "core" in rendered


class TestFigure5:
    def test_tiny_sweep_with_cap(self):
        result = run_figure5(
            sizes=(200, 400), algorithms=("OCA", "CFinder"), cfinder_cap=200, seed=0
        )
        oca = result.series_by_name("OCA")
        cfinder = result.series_by_name("CFinder")
        assert len(oca.xs) == 2
        assert cfinder.xs == [200]  # capped above 200
        assert all(y > 0 for y in oca.ys)
        # The overlap work counts are recorded where CFinder ran.
        pairs = result.series_by_name("clique pairs")
        subsets = result.series_by_name("k-1 subsets")
        assert pairs.xs == subsets.xs == [200]
        assert pairs.ys[0] > subsets.ys[0] > 0
        assert "clique pairs" in result.render()

    def test_render(self):
        result = run_figure5(sizes=(200,), algorithms=("OCA",), seed=0)
        assert "nodes" in result.render()

    def test_sparse_solver_is_loaded_before_the_first_timed_point(self):
        """The lazy ``scipy.sparse.linalg`` import must not land inside
        OCA's first timed run; a fresh interpreter has not loaded it."""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run(
            [sys.executable, "-c", _FIRST_POINT_SCRIPT],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False", "[True]"]


#: Reports whether scipy.sparse.linalg is loaded before run_figure5, and
#: at each timed run_algorithm call it makes.
_FIRST_POINT_SCRIPT = """
import sys
from repro.experiments import figure5

loaded = []
timed = figure5.run_algorithm

def run_algorithm(*args, **kwargs):
    loaded.append("scipy.sparse.linalg" in sys.modules)
    return timed(*args, **kwargs)

figure5.run_algorithm = run_algorithm
print("scipy.sparse.linalg" in sys.modules)
figure5.run_figure5(sizes=(200,), algorithms=("OCA",), seed=0)
print(str(loaded).replace(" ", ""))
"""


class TestFigure6:
    def test_tiny_sweep(self):
        result = run_figure6(
            community_sizes=(40, 80), n=300, algorithms=("OCA", "LFK"), seed=0
        )
        for name in ("OCA", "LFK"):
            series = result.series_by_name(name)
            assert series.xs == [40, 80]
            assert all(y > 0 for y in series.ys)
        assert "community size" in result.render()


class TestPaperScaleParameterisation:
    """The paper_scale flags reconstruct the paper's exact generator
    parameters (smoke-tested at one small size; the full sweeps are a
    benchmark concern)."""

    def test_figure5_paper_scale_single_point(self):
        result = run_figure5(
            sizes=(1200,),
            algorithms=("OCA",),
            cfinder_cap=0,
            paper_scale=True,
            seed=0,
        )
        series = result.series_by_name("OCA")
        assert series.xs == [1200]
        assert series.ys[0] > 0

    def test_figure6_paper_scale_single_point(self):
        result = run_figure6(
            community_sizes=(500,),
            n=1200,
            algorithms=("OCA",),
            paper_scale=True,
            seed=0,
        )
        series = result.series_by_name("OCA")
        assert series.xs == [500]
        assert series.ys[0] > 0


class TestWikipediaRun:
    def test_small_end_to_end(self):
        result = run_wikipedia(n=800, patience=10, seed=0)
        assert result.nodes == 800
        assert result.edges > 800
        assert result.communities >= 1
        assert result.oca_seconds > 0
        assert 0.0 <= result.theta_vs_topics <= 1.0
        assert "communities found" in result.render()
