"""Where growth tasks run: inline for one worker, a process pool for more.

Unit tests of the engine's pool — which shipping the start method
implies, how tasks are grouped into worker calls, and that results come
back in task order however they travelled.
"""

import os

import pytest

from repro.core.fitness import DirectedLaplacianFitness
from repro.engine import GrowthTask, WorkerContext, execute_growth_task
from repro.engine import engine, tasks
from repro.engine.engine import _Pool, _run_inline, _shipping_for
from repro.generators import ring_of_cliques
from repro.graph import compile_graph

from ..conftest import graph_exports


@pytest.fixture(scope="module")
def context():
    g, _ = ring_of_cliques(4, 5)
    return WorkerContext(
        fitness=DirectedLaplacianFitness(0.25),
        max_growth_steps=None,
        compiled=compile_graph(g),
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


def _inline_results(context, batch):
    return [execute_growth_task(context, task) for task in batch]


@pytest.mark.parametrize(
    "workers, method, expected",
    [
        (1, "fork", "inline"),
        (1, "spawn", "inline"),
        (2, "fork", "fork"),
        (2, "spawn", "mmap"),
        (2, "forkserver", "mmap"),
    ],
)
def test_shipping_follows_workers_and_start_method(
    workers, method, expected, start_method
):
    start_method(method)
    assert _shipping_for(workers) == expected


class TestInline:
    def test_one_worker_runs_every_task_inline(self, context):
        batch = _tasks(7)
        results, calls = _run_inline(context, batch)
        assert results == _inline_results(context, batch)
        # Inline runs make no worker call.
        assert calls == 0


class TestProcessPool:
    def test_results_come_back_in_task_order(self, context, start_method):
        start_method("fork")
        pool = _Pool(context, 2)
        batch = _tasks(9)
        try:
            assert pool.shipping == "fork" and pool.export is None
            results, calls = pool.run(batch)
        finally:
            pool.close()
        assert [r.index for r in results] == list(range(9))
        assert results == _inline_results(context, batch)
        assert 1 < calls < len(batch)

    def test_chunks_are_contiguous_and_complete(self, context, monkeypatch):
        seen = []

        class RecordingExecutor:
            """Runs the pool's calls in this process, recording each chunk."""

            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def map(self, fn, chunks):
                chunks = list(chunks)
                seen.extend(chunks)
                return [fn(chunk) for chunk in chunks]

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(engine, "_shipping_for", lambda workers: "fork")
        monkeypatch.setattr(tasks, "_WORKER_CONTEXT", None)
        pool = _Pool(context, 2)
        batch = _tasks(10)
        try:
            results, calls = pool.run(batch)
        finally:
            pool.close()
        # ceil(10 / (2 * 2)) = 3 tasks a chunk.
        assert [[t.index for t in chunk] for chunk in seen] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9]
        ]
        assert calls == len(seen)
        assert results == _inline_results(context, batch)

    def test_close_is_idempotent(self, context, start_method):
        start_method("fork")
        pool = _Pool(context, 2)
        pool.run(_tasks(2))
        pool.close()
        pool.close()


class TestMappedPool:
    def test_workers_map_the_export_and_the_driver_keeps_the_graph(
        self, context, start_method, worker_attaches
    ):
        start_method("spawn")
        pool = _Pool(context, 2)
        batch = _tasks(6)
        try:
            assert pool.shipping == "mmap"
            # The compatibility check compares the driver's graph object.
            assert pool.context is context
            export = os.path.realpath(pool.export.name)
            assert export in graph_exports()
            results, _ = pool.run(batch)
        finally:
            pool.close()
        assert results == _inline_results(context, batch)
        # A spawn worker inherits no mapping: it mapped all three files.
        assert worker_attaches[0] == {
            os.path.join(export, f"{name}.npy")
            for name in ("indptr", "indices", "degrees")
        }
        assert export not in graph_exports()

    def test_close_is_idempotent(self, context, start_method):
        start_method("spawn")
        pool = _Pool(context, 2)
        pool.run(_tasks(2))
        pool.close()
        pool.close()
        assert not os.path.exists(pool.export.name)
