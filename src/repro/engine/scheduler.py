"""Central batch scheduler: turns a seeding strategy into task batches.

Everything stochastic in the OCA outer loop happens here, in the driver
process, in task order: picking the next seed node and drawing the
random neighbourhood it starts from.  Both consume the *shared* master
RNG in exactly the sequence the sequential algorithm would, so with
``batch_size=1`` the engine reproduces the sequential run draw-for-draw,
and with any batch size the emitted task sequence is a pure function of
``(graph, seeding, rng state, batch_size)`` — identical for any worker
count, because workers never touch an RNG.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Hashable, List

from ..core.seeding import SeedingStrategy
from ..errors import ConfigurationError
from ..graph import Graph
from ..graph.subgraph import random_neighborhood_subset
from .tasks import GrowthTask

__all__ = ["BatchScheduler"]

Node = Hashable


class BatchScheduler:
    """Issues numbered :class:`~repro.engine.tasks.GrowthTask` batches.

    Parameters
    ----------
    graph:
        Host graph (read-only).
    seeding:
        The seed-selection strategy; consulted once per task, in task
        order, against the covered set the caller passes in.
    rng:
        The shared master generator; the scheduler is its only consumer.
    seed_fraction:
        Probability each neighbour of the seed joins the initial set.
    batch_size:
        Maximum tasks per batch.  Part of the deterministic contract:
        results depend on it (seeding within a batch sees the covered
        set as of the batch start), so it must never be derived from the
        worker count.
    """

    def __init__(
        self,
        graph: Graph,
        seeding: SeedingStrategy,
        rng: random.Random,
        seed_fraction: float,
        batch_size: int,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self._graph = graph
        self._seeding = seeding
        self._rng = rng
        self._seed_fraction = seed_fraction
        self._batch_size = batch_size
        self._next_index = 0
        self._exhausted = False

    @property
    def tasks_issued(self) -> int:
        """Total tasks emitted so far."""
        return self._next_index

    @property
    def exhausted(self) -> bool:
        """True once the seeding strategy has returned ``None``."""
        return self._exhausted

    def next_batch(self, covered: AbstractSet[Node]) -> List[GrowthTask]:
        """Up to ``batch_size`` tasks seeded against ``covered``.

        Returns an empty list when the seeding strategy is exhausted —
        the engine treats that as a halting signal, exactly like the
        sequential loop treats a ``None`` seed.
        """
        tasks: List[GrowthTask] = []
        if self._exhausted:
            return tasks
        while len(tasks) < self._batch_size:
            seed_node = self._seeding.next_seed(self._graph, covered, self._rng)
            if seed_node is None:
                self._exhausted = True
                break
            initial = random_neighborhood_subset(
                self._graph,
                seed_node,
                fraction=self._seed_fraction,
                seed=self._rng,
            )
            tasks.append(
                GrowthTask(
                    index=self._next_index,
                    seed_node=seed_node,
                    initial_members=frozenset(initial),
                )
            )
            self._next_index += 1
        return tasks
