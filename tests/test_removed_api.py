"""The APIs removed in 3.0.0 and 4.0.0 stay removed.

3.0.0: ``workers`` picks the execution path (inline or one process pool)
and the start method picks how a pool receives the graph, so no entry
point takes ``backend=`` or ``shipping=``, and :mod:`repro.engine` no
longer exports the backend registry or the progress hook.

4.0.0: :mod:`repro.graph`, :mod:`repro.communities` and
:mod:`repro.extensions` export only what an entry point reaches.  The
unreached names are gone, a few return types and helpers are no longer
exported but stay in their modules, and the edge-list readers lost
their ``comment``, ``drop_self_loops`` and ``intern_ints`` knobs.

5.0.0: each execution setting has one owner.  ``batch_size`` is an OCA
parameter (``params`` / :class:`OCAConfig`, or ``run_algorithm`` and
``repro detect --batch-size``), passed per run to the engine;
``workers`` sizes the pool of an engine's owner.  So no config or
request carries ``workers``, no request, session, manager, service or
sweep carries ``batch_size``, and the engine has neither ``persistent``
nor a constructor ``batch_size``.  A sweep has no ``workers`` either: it
runs on the pool of the manager it is given.  The graph helpers no entry point
reached are gone too.

6.0.0: a pool that does not ``fork`` memory-maps the graph from ``.npy``
files, so the shared-memory module and the mapping handles a compiled
graph kept for it are gone.  So are the halting criteria that stopped on
the clock, and four metric families that copied a count another family
already keeps.

7.0.0: the greedy climb is deterministic, so the growth seed nothing
read is gone: ``grow_community`` takes no ``seed``, a ``GrowthTask``
carries no ``rng_seed``, the scheduler takes no ``master_seed`` and
``STREAM_GROWTH`` is no longer a stream key.

8.0.0: the SLO tracker reads the service's latency histogram and
response counters, so its own account is gone: no ``P2Quantile``, no
sliding window, no ``observe``, and ``slo=`` takes only the spec
string.  ``MetricsRegistry.bind`` is the only way to make an
instrument, so the ``counter`` / ``gauge`` / ``histogram`` methods are
gone, and so are the writers on a family object: a series is written
through the handle ``bind`` returns.
"""

import importlib
import io

import pytest

import repro.engine
from repro import (
    OCA,
    DetectionRequest,
    ExecutionEngine,
    GraphSession,
    OCAConfig,
    get_detector,
)
from repro.cli import main
from repro.errors import AlgorithmError
from repro.experiments.runner import run_algorithm, run_replicates, run_sweep
from repro.generators import ring_of_cliques
from repro.graph import CompiledGraph, compile_graph, read_edge_list
from repro.graph.io import parse_edge_list
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
    "run_sweep": lambda **kw: run_sweep("OCA", [GRAPH], seed=1, **kw),
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


REMOVED_IN_4 = {
    "repro.graph": [
        "GraphBuilder", "BuildReport", "SubgraphView",
        "induced_subgraph", "ego_network", "neighborhood",
        "bfs_order", "bfs_distances", "dfs_order",
        "largest_component", "is_connected", "shortest_path",
        "degree_histogram", "local_clustering", "average_clustering",
        "triangle_count",
        "read_adjacency_list", "write_adjacency_list", "read_metis", "write_metis",
        "adjacency_matrix", "laplacian_matrix",
        "from_networkx", "to_networkx", "from_scipy_sparse", "to_scipy_sparse",
        "from_edge_array",
    ],
    "repro.communities": [
        "rho_jaccard_form", "distance", "overlapping_nmi",
        "internal_edges", "cut_size", "conductance", "internal_density",
        "modularity", "overlapping_modularity", "coverage", "read_cover",
    ],
    "repro.extensions": [
        "containment_forest",
        "co_membership", "consensus_cover", "cover_stability",
        "ConsensusResult", "consensus_oca",
    ],
}

#: Still defined where they live, no longer exported by the package.
UNEXPORTED_IN_4 = {
    "repro.graph": {
        "Node": "repro.graph.graph",
        "Edge": "repro.graph.graph",
        "GraphSummary": "repro.graph.statistics",
        "density": "repro.graph.statistics",
    },
    "repro.communities": {
        "best_match_assignment": "repro.communities.suitability",
        "CommunityMatch": "repro.communities.report",
        "match_table": "repro.communities.report",
    },
    "repro.extensions": {
        "CommunityRelation": "repro.extensions.hierarchy",
        "HierarchyLevel": "repro.extensions.hierarchy",
        "RESIDUAL": "repro.extensions.summarization",
        "Supernode": "repro.extensions.summarization",
        "Superedge": "repro.extensions.summarization",
        "GraphSummaryModel": "repro.extensions.summarization",
    },
}


def _import_from(package, name):
    exec(f"from {package} import {name}", {})


@pytest.mark.parametrize(
    "package, name",
    [(package, name) for package, names in REMOVED_IN_4.items() for name in names],
)
def test_removed_name_cannot_be_imported(package, name):
    with pytest.raises(ImportError):
        _import_from(package, name)


@pytest.mark.parametrize(
    "package, name",
    [(package, name) for package, names in UNEXPORTED_IN_4.items() for name in names],
)
def test_unexported_name_lives_only_in_its_module(package, name):
    with pytest.raises(ImportError):
        _import_from(package, name)
    _import_from(UNEXPORTED_IN_4[package][name], name)


@pytest.mark.parametrize(
    "module",
    [
        "repro.graph.builder",
        "repro.graph.convert",
        "repro.graph.views",
        "repro.communities.nmi",
        "repro.extensions.consensus",
    ],
)
def test_removed_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize(
    "call",
    [
        lambda: read_edge_list(io.StringIO("0 1\n"), comment="%"),
        lambda: read_edge_list(io.StringIO("0 1\n"), drop_self_loops=False),
        lambda: list(parse_edge_list(["0 1"], comment="%")),
        lambda: list(parse_edge_list(["0 1"], intern_ints=False)),
    ],
    ids=[
        "read_edge_list-comment",
        "read_edge_list-drop_self_loops",
        "parse_edge_list-comment",
        "parse_edge_list-intern_ints",
    ],
)
def test_edge_list_readers_take_no_knobs(call):
    with pytest.raises(TypeError):
        call()


#: The execution settings removed in 5.0.0, by entry point.
REMOVED_IN_5 = {
    "OCAConfig": ["workers"],
    "DetectionRequest": ["workers", "batch_size"],
    "ExecutionEngine": ["persistent", "batch_size"],
    "GraphSession": ["batch_size"],
    "SessionManager": ["batch_size"],
    "ServingService": ["batch_size"],
    "run_sweep": ["batch_size", "workers"],
}


@pytest.mark.parametrize(
    "entry, keyword",
    [(entry, kw) for entry, keywords in REMOVED_IN_5.items() for kw in keywords],
)
def test_entry_point_takes_no_removed_execution_setting(entry, keyword):
    with pytest.raises(TypeError, match=keyword):
        ENTRY_POINTS[entry](**{keyword: 2})


def test_oca_params_reject_workers():
    request = DetectionRequest(graph=GRAPH, seed=1, params={"workers": 2})
    with pytest.raises(AlgorithmError, match="workers"):
        get_detector("oca").detect(request)


def test_serve_takes_no_batch_size(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--batch-size", "4"])
    assert exit_info.value.code == 2
    assert "--batch-size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "owner, name",
    [
        (OCA, "_engine_matches"),
        (ExecutionEngine(), "persistent"),
        (ExecutionEngine(), "batch_size"),
    ],
)
def test_engine_compatibility_check_is_gone(owner, name):
    assert not hasattr(owner, name)


#: Graph helpers no entry point reached, removed in 5.0.0.
REMOVED_CSR_FUNCTIONS = [
    "in_sorted",
    "intersect_sorted",
    "intersect_size_sorted",
    "setdiff_sorted",
    "segment_sums",
]
REMOVED_METHODS = {
    "CompiledGraph": ["neighbor_mask_counts", "volume_of", "ids_of", "label_of"],
    "Graph": [
        "relabelled", "edges_incident", "boundary_degree", "remove_node", "degrees",
    ],
}


@pytest.mark.parametrize("name", REMOVED_CSR_FUNCTIONS)
def test_csr_set_algebra_is_gone(name):
    with pytest.raises(ImportError):
        _import_from("repro.graph.csr", name)


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls, names in REMOVED_METHODS.items() for name in names],
)
def test_graph_helper_is_gone(cls, name):
    graph = {"Graph": GRAPH, "CompiledGraph": compile_graph(GRAPH)}[cls]
    assert not hasattr(graph, name)


#: The shared-memory shipping API, removed in 6.0.0.
REMOVED_SHM_NAMES = [
    "ShmGraphDescriptor",
    "SharedGraphSegments",
    "attach_shared",
    "export_shared",
    "shm_available",
    "live_segment_names",
]


@pytest.mark.parametrize("name", REMOVED_SHM_NAMES)
def test_shared_memory_name_is_gone(name):
    with pytest.raises(ImportError):
        _import_from("repro.graph", name)


def test_shared_memory_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.graph.shm")


def test_compiled_graph_keeps_no_mapping_handles():
    compiled = compile_graph(GRAPH)
    assert not hasattr(compiled, "_retained")
    with pytest.raises(TypeError):
        CompiledGraph.from_shared(
            compiled.indptr,
            compiled.indices,
            compiled.degrees,
            labels=None,
            retained=(),
        )


def test_compiled_pickle_needs_its_spectral_cache():
    """The four-field pickle state from before the spectral cache is
    no longer read."""
    compiled = compile_graph(GRAPH)
    with pytest.raises(ValueError):
        CompiledGraph.__new__(CompiledGraph).__setstate__(compiled.__getstate__()[:4])


@pytest.mark.parametrize("name", ["TimeBudgetHalting", "make_halting"])
@pytest.mark.parametrize("package", ["repro.core", "repro.core.halting"])
def test_wall_clock_halting_is_gone(package, name):
    with pytest.raises(ImportError):
        _import_from(package, name)


@pytest.mark.parametrize(
    "family",
    [
        "repro_session_detect_total",
        "repro_manager_detect_total",
        "repro_manager_detect_seconds_total",
        "repro_queue_coalesced_total",
    ],
)
def test_duplicate_metric_family_is_gone(family):
    service = ServingService()
    try:
        service.queue.detect(GRAPH, "oca", seed=1).result(timeout=60)
        families = {
            line.split()[2]
            for line in service.registry.render().splitlines()
            if line.startswith("# TYPE ")
        }
    finally:
        service.close()
    assert "repro_session_detect_seconds" in families
    assert family not in families


def test_growth_takes_no_seed():
    from repro.core import DirectedLaplacianFitness, grow_community

    with pytest.raises(TypeError, match="seed"):
        grow_community(compile_graph(GRAPH), [0], DirectedLaplacianFitness(0.3), seed=1)


def test_growth_task_carries_no_stream_seed():
    from dataclasses import fields

    from repro.engine import GrowthTask

    assert "rng_seed" not in {field.name for field in fields(GrowthTask)}
    with pytest.raises(TypeError, match="rng_seed"):
        GrowthTask(index=0, seed_node=0, initial_members=frozenset({0}), rng_seed=1)


def test_scheduler_takes_no_master_seed():
    import random

    from repro.core import make_seeding
    from repro.engine import BatchScheduler

    with pytest.raises(TypeError, match="master_seed"):
        BatchScheduler(
            GRAPH,
            make_seeding("uncovered"),
            rng=random.Random(1),
            master_seed=1,
            seed_fraction=0.6,
            batch_size=1,
        )


def test_growth_stream_key_is_gone():
    with pytest.raises(ImportError):
        _import_from("repro._rng", "STREAM_GROWTH")


def test_p2_quantile_is_gone():
    with pytest.raises(ImportError):
        _import_from("repro.observability", "P2Quantile")
    with pytest.raises(ImportError):
        _import_from("repro.observability.slo", "P2Quantile")


def test_slo_tracker_has_no_window_and_no_observe():
    from repro.observability import SloTracker

    with ServingService(slo="p99:0.5s,availability:99.9") as service:
        assert not hasattr(service.slo, "observe")
        assert not hasattr(service.slo, "window_counts")
        with pytest.raises(TypeError, match="window_seconds"):
            SloTracker(
                {"latency": [], "availability": 99.9},
                service._metrics,
                service.registry,
                window_seconds=60.0,
            )


def test_service_slo_takes_only_the_spec_string():
    with ServingService(slo="p99:0.5s") as service:
        with pytest.raises(TypeError, match="spec string"):
            ServingService(slo=service.slo)


@pytest.mark.parametrize("method", ["counter", "gauge", "histogram"])
def test_registry_factory_method_is_gone(method):
    from repro.observability import MetricsRegistry, NullMetricsRegistry

    assert not hasattr(MetricsRegistry(), method)
    assert not hasattr(NullMetricsRegistry(), method)


@pytest.mark.parametrize(
    "family, writers",
    [
        ("Counter", ("inc", "value")),
        ("Gauge", ("set", "inc", "dec", "set_max", "set_function", "value")),
        ("Histogram", ("observe", "count", "sum")),
    ],
)
def test_family_objects_have_no_writers(family, writers):
    import repro.observability

    cls = getattr(repro.observability, family)
    assert [name for name in writers if hasattr(cls, name)] == []
