"""Where growth tasks run: inline for one worker, a process pool for more.

Unit tests of the engine's pool — which shipping the start method
implies, how tasks are grouped into worker calls, and that results come
back in task order however they travelled.
"""

import pytest

from repro.core.fitness import DirectedLaplacianFitness
from repro.engine import GrowthTask, WorkerContext, execute_growth_task
from repro.engine import engine, tasks
from repro.engine.engine import _Pool, _run_inline, _shipping_for
from repro.generators import ring_of_cliques
from repro.graph import compile_graph
from repro.graph.shm import live_segment_names, shm_available

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)


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
            rng_seed=i,
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
        (2, "fork", "pickle"),
        pytest.param(2, "spawn", "shm", marks=needs_shm),
        pytest.param(2, "forkserver", "shm", marks=needs_shm),
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
            assert pool.shipping == "pickle" and pool.segments is None
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
        monkeypatch.setattr(engine, "_shipping_for", lambda workers: "pickle")
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


@needs_shm
class TestSharedMemoryPool:
    def test_workers_get_the_export_and_the_driver_keeps_the_graph(
        self, context, start_method, worker_attaches
    ):
        start_method("spawn")
        pool = _Pool(context, 2)
        batch = _tasks(6)
        try:
            assert pool.shipping == "shm"
            # The compatibility check compares the driver's graph object.
            assert pool.context is context
            exported = set(pool.segments.descriptor.segment_names)
            assert exported <= live_segment_names()
            results, _ = pool.run(batch)
        finally:
            pool.close()
        assert results == _inline_results(context, batch)
        assert worker_attaches[0] and worker_attaches[0] <= exported
        assert pool.segments.closed
        assert not exported & live_segment_names()

    def test_close_is_idempotent(self, context, start_method):
        start_method("spawn")
        pool = _Pool(context, 2)
        pool.run(_tasks(2))
        pool.close()
        pool.close()
        assert pool.segments.closed
