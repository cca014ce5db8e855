"""The engine knobs removed in 3.0.0 stay removed.

``workers`` picks the execution path (inline or one process pool) and
the start method picks how a pool receives the graph, so no entry point
takes ``backend=`` or ``shipping=``, and :mod:`repro.engine` no longer
exports the backend registry or the progress hook.
"""

import importlib

import pytest

import repro.engine
from repro import DetectionRequest, ExecutionEngine, GraphSession, OCAConfig
from repro.errors import AlgorithmError
from repro.experiments.runner import run_algorithm, run_replicates
from repro.generators import ring_of_cliques
from repro.serving import ServingService, SessionManager

from .conftest import detect

GRAPH = ring_of_cliques(3, 4)[0]

ENTRY_POINTS = {
    "OCAConfig": lambda **kw: OCAConfig(**kw),
    "DetectionRequest": lambda **kw: DetectionRequest(graph=GRAPH, **kw),
    "GraphSession": lambda **kw: GraphSession(GRAPH, **kw),
    "SessionManager": lambda **kw: SessionManager(**kw),
    "ServingService": lambda **kw: ServingService(**kw),
    "run_algorithm": lambda **kw: run_algorithm("OCA", GRAPH, seed=1, **kw),
    "run_replicates": lambda **kw: run_replicates("OCA", GRAPH, 1, seed=1, **kw),
    "ExecutionEngine": lambda **kw: ExecutionEngine(**kw),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_takes_no_backend_or_shipping(entry):
    for keyword, value in (("backend", "process"), ("shipping", "shm")):
        with pytest.raises(TypeError, match=keyword):
            ENTRY_POINTS[entry](**{keyword: value})


def test_engine_takes_no_progress_callback():
    with pytest.raises(TypeError, match="progress"):
        ExecutionEngine(progress=print)


@pytest.mark.parametrize("keyword", ["backend", "shipping"])
def test_oca_params_reject_the_removed_knobs(keyword):
    with pytest.raises(AlgorithmError, match=keyword):
        detect("oca", GRAPH, seed=1, **{keyword: "auto"})


@pytest.mark.parametrize(
    "name",
    [
        "ThreadBackend",
        "register_backend",
        "available_backends",
        "make_backend",
        "ProgressCallback",
        "log_progress",
    ],
)
def test_engine_no_longer_exports(name):
    assert not hasattr(repro.engine, name)
    assert name not in repro.engine.__all__


def test_backends_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.backends")
