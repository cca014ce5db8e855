"""The compiled graph's one out-of-process form: ``.npy`` files.

:func:`save_csr` writes the three CSR arrays and :func:`map_csr` maps
them back read-only.  The graph store persists compiled graphs that
way, and a pool that does not ``fork`` hands its workers a temporary
directory of them: export, map, lifecycle and the fallback when the
export fails.
"""

import errno
import gc
import os
import pickle
import warnings

import numpy as np
import pytest

from repro.core.fitness import DirectedLaplacianFitness
from repro.engine import GrowthTask, WorkerContext, engine, execute_growth_task
from repro.engine.engine import _Pool
from repro.errors import SessionClosedError
from repro.generators import ring_of_cliques
from repro.graph import CompiledGraph, Graph, compile_graph, map_csr, save_csr

from ..conftest import graph_exports


@pytest.fixture()
def compiled():
    graph, _ = ring_of_cliques(4, 5)
    return compile_graph(graph)


@pytest.fixture()
def compiled_str():
    graph, _ = ring_of_cliques(4, 5)
    renamed = Graph(
        edges=[(f"n{u}", f"n{v}") for u, v in graph.edges()]
    )
    return compile_graph(renamed)


def _context(compiled, shipped=None):
    return WorkerContext(
        fitness=DirectedLaplacianFitness(0.25),
        max_growth_steps=None,
        compiled=compiled,
        shipped=shipped,
    )


def _tasks(count):
    return [
        GrowthTask(
            index=i,
            seed_node=i,
            initial_members=frozenset({i, (i + 1) % 20}),
        )
        for i in range(count)
    ]


class TestSaveMap:
    def test_roundtrip_arrays(self, compiled_str, tmp_path):
        save_csr(compiled_str, tmp_path)
        assert sorted(os.listdir(tmp_path)) == [
            "degrees.npy", "indices.npy", "indptr.npy"
        ]
        arrays = map_csr(tmp_path)
        for name in ("indptr", "indices", "degrees"):
            np.testing.assert_array_equal(arrays[name], getattr(compiled_str, name))
            assert arrays[name].dtype == np.int32
        rebuilt = CompiledGraph.from_shared(**arrays, labels=compiled_str.labels)
        assert rebuilt == compiled_str

    def test_mapped_arrays_are_read_only(self, compiled, tmp_path):
        save_csr(compiled, tmp_path)
        for array in map_csr(tmp_path).values():
            # A plain ndarray over the map: numpy's memmap subclass
            # would slice every neighbour row in Python.
            assert type(array) is np.ndarray
            assert isinstance(array.base, np.memmap)
            with pytest.raises(ValueError):
                array[0] = 99

    @pytest.mark.parametrize("cliques, size", [(3, 3), (4, 5), (200, 20)])
    def test_map_shares_the_file_pages_without_copying(
        self, cliques, size, tmp_path
    ):
        """A value written into a file shows up in an earlier read-only
        map of it, at every size: mapping never copies, so its cost does
        not grow with the graph."""
        compiled = compile_graph(ring_of_cliques(cliques, size)[0])
        save_csr(compiled, tmp_path)
        mapped = map_csr(tmp_path)
        for name, array in mapped.items():
            writer = np.load(tmp_path / f"{name}.npy", mmap_mode="r+")
            writer[-1] += 1
            writer.flush()
            assert array[-1] == getattr(compiled, name)[-1] + 1, name
            del writer

    def test_a_mapped_graph_survives_the_export_removal(self, compiled, tmp_path):
        """POSIX keeps unlinked pages mapped, so a worker mid-detect
        keeps a valid graph even if its export goes early (the engine
        never removes it first — it joins the workers — but the
        mapping contract must hold regardless)."""
        save_csr(compiled, tmp_path)
        arrays = map_csr(tmp_path)
        for path in tmp_path.iterdir():
            path.unlink()
        np.testing.assert_array_equal(arrays["indices"], compiled.indices)

    def test_a_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            map_csr(tmp_path / "gone")


class TestWorkerContext:
    """A pickled context with an export is what a non-``fork`` worker
    receives: the path, never the arrays."""

    def test_pickle_carries_only_the_path(self, tmp_path):
        compiled = compile_graph(ring_of_cliques(200, 20)[0])
        save_csr(compiled, tmp_path)
        payload = pickle.dumps(_context(compiled, str(tmp_path)))
        assert len(payload) < 1024 < compiled.nbytes()

    def test_worker_maps_dense_ids_and_runs_the_same_tasks(
        self, compiled_str, tmp_path
    ):
        save_csr(compiled_str, tmp_path)
        driver = _context(compiled_str.as_identity(), str(tmp_path))
        worker = pickle.loads(pickle.dumps(driver))
        # Workers grow dense-id sets, so the labels stay in the driver.
        assert worker.compiled.identity_labels
        assert isinstance(worker.compiled.indices.base, np.memmap)
        assert worker.compiled == driver.compiled
        batch = _tasks(6)
        assert [execute_growth_task(worker, t) for t in batch] == [
            execute_growth_task(driver, t) for t in batch
        ]

    def test_map_after_the_export_is_removed_raises_session_closed(
        self, compiled, tmp_path
    ):
        export = tmp_path / "export"
        export.mkdir()
        save_csr(compiled, export)
        payload = pickle.dumps(_context(compiled, str(export)))
        for path in export.iterdir():
            path.unlink()
        export.rmdir()
        with pytest.raises(SessionClosedError, match="removed"):
            pickle.loads(payload)


@pytest.fixture()
def in_process_pool(monkeypatch, start_method):
    """``_Pool`` under ``spawn`` with an executor that starts no process:
    it hands the initializer a pickled round trip of its arguments, as a
    spawned worker would receive them, and runs calls in this process."""
    from repro.engine import tasks

    class InProcessExecutor:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*pickle.loads(pickle.dumps(initargs)))

        def map(self, fn, chunks):
            return [fn(chunk) for chunk in chunks]

        def shutdown(self, wait=True):
            pass

    start_method("spawn")
    monkeypatch.setattr(engine, "ProcessPoolExecutor", InProcessExecutor)
    monkeypatch.setattr(tasks, "_WORKER_CONTEXT", None)
    return _Pool


class TestPoolExport:
    def test_the_pool_exports_once_and_close_removes_it(
        self, compiled, in_process_pool
    ):
        context = _context(compiled)
        before = graph_exports()
        pool = in_process_pool(context, 2)
        try:
            assert pool.shipping == "mmap"
            assert pool.context is context
            assert graph_exports() - before == {
                os.path.realpath(pool.export.name)
            }
            results, _ = pool.run(_tasks(5))
        finally:
            pool.close()
        assert results == [execute_growth_task(context, t) for t in _tasks(5)]
        assert graph_exports() == before
        pool.close()  # idempotent

    def test_an_abandoned_export_warns_and_is_removed(
        self, compiled, in_process_pool
    ):
        before = graph_exports()
        pool = in_process_pool(_context(compiled), 2)
        name = pool.export.name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del pool
            gc.collect()
        assert any(
            issubclass(w.category, ResourceWarning)
            and "Implicitly cleaning up" in str(w.message)
            for w in caught
        )
        assert not os.path.exists(name)
        assert graph_exports() == before

    def test_a_failed_export_ships_pickle_and_leaves_nothing(
        self, compiled, in_process_pool, monkeypatch
    ):
        def full_disk(compiled, directory):
            # One file is written, then the disk fills.
            open(os.path.join(directory, "indptr.npy"), "wb").close()
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(engine, "save_csr", full_disk)
        context = _context(compiled)
        before = graph_exports()
        pool = in_process_pool(context, 2)
        try:
            assert pool.shipping == "pickle"
            assert pool.export is None
            assert graph_exports() == before
            results, _ = pool.run(_tasks(5))
        finally:
            pool.close()
        assert results == [execute_growth_task(context, t) for t in _tasks(5)]
