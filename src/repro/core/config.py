"""Configuration for the OCA driver.

Collects every knob the paper mentions (and the ones it deliberately
leaves open) into one validated dataclass, so experiment scripts can be
explicit about what they vary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..errors import ConfigurationError
from .fitness import FitnessFunction
from .halting import HaltingCriterion, StagnationHalting
from .seeding import SeedingStrategy
from .vector_space import DEFAULT_SPECTRAL_SOLVER, SPECTRAL_SOLVERS

__all__ = ["DEFAULT_BATCH_SIZE", "OCAConfig"]

#: Default tasks per batch.  1 on purpose, for two reasons: results
#: depend on the batch size (seeding within a batch sees the covered set
#: as of the batch start), so the default must be a fixed constant —
#: deriving it from the worker count would make covers depend on the
#: hardware — and at 1 the engine is *exactly* the paper's sequential
#: algorithm.  Parallel callers opt into speculation by raising it
#: (a few times the worker count works well).
DEFAULT_BATCH_SIZE = 1


@dataclass
class OCAConfig:
    """All tunables of :class:`repro.core.oca.OCA`.

    Attributes
    ----------
    c:
        Inner-product value of the virtual vector representation.  ``None``
        (default, and the paper's choice) computes the largest admissible
        value ``-1/lambda_min`` spectrally.
    seed_fraction:
        Probability with which each neighbour of the seed node joins the
        initial set ("a random neighborhood of the seed").  The default
        is 0.6.  The randomness matters: full closed neighbourhoods
        straddling two overlapping communities drag the search into
        merged-blob local optima.
    seeding:
        A :class:`~repro.core.seeding.SeedingStrategy` instance or one of
        the built-in names ``random`` / ``degree`` / ``uncovered``.
    halting:
        A :class:`~repro.core.halting.HaltingCriterion` instance; the
        default stops after 20 consecutive duplicate discoveries.
    min_community_size:
        Local optima smaller than this are discarded (1 keeps everything).
    merge_threshold:
        ``rho`` threshold for the merge post-processing step; ``None``
        disables merging.
    assign_orphans:
        When true, every node ends up in >= 1 community via the paper's
        majority-of-neighbours rule.
    max_growth_steps:
        Per-run budget on greedy moves; ``None`` derives a safe default
        from the graph size.
    spectral_tol / spectral_max_iterations:
        Solver controls for computing ``c``.
    spectral_solver:
        How ``lambda_min`` is resolved on a spectral-cache miss:
        ``lanczos`` (default, ``scipy.sparse.linalg.eigsh``, one sparse
        solve) or ``power`` (the paper's power method, ten to a hundred
        times slower cold).  The two agree to about 1e-4, which can
        change a cover, so each keeps its own spectral-cache slot.
    batch_size:
        Local searches dispatched per speculative batch (default 1, the
        paper's sequential algorithm).
        Part of the result's identity: seeding within a batch sees the
        covered set as of the batch start.  The worker count is not a
        config field: it sizes the pool of the
        :class:`~repro.engine.ExecutionEngine` that runs the searches,
        and the cover is identical for every pool.
    fitness:
        Optional custom objective for the greedy search; ``None``
        (default, and the paper's algorithm) uses the directed Laplacian
        with the resolved ``c``.  Setting this is how the ablation
        studies swap in ``phi`` or the LFK objective while keeping
        seeding/halting/post-processing identical.  A fitness that is
        not ``monotone_in_internal_edges`` is searched by full frontier
        and member scans in ascending id order, so ties still go to the
        lowest insertion rank.
    """

    c: Optional[float] = None
    seed_fraction: float = 0.6
    seeding: Union[SeedingStrategy, str] = "uncovered"
    halting: Optional[HaltingCriterion] = None
    min_community_size: int = 2
    merge_threshold: Optional[float] = 0.4
    assign_orphans: bool = False
    max_growth_steps: Optional[int] = None
    spectral_tol: float = 1e-6
    spectral_max_iterations: int = 10000
    spectral_solver: str = DEFAULT_SPECTRAL_SOLVER
    batch_size: int = DEFAULT_BATCH_SIZE
    fitness: Optional[FitnessFunction] = None

    def __post_init__(self) -> None:
        if self.c is not None and not 0.0 <= self.c < 1.0:
            raise ConfigurationError(f"c must lie in [0, 1), got {self.c}")
        if not 0.0 <= self.seed_fraction <= 1.0:
            raise ConfigurationError(
                f"seed_fraction must lie in [0, 1], got {self.seed_fraction}"
            )
        if self.min_community_size < 1:
            raise ConfigurationError(
                f"min_community_size must be >= 1, got {self.min_community_size}"
            )
        if self.merge_threshold is not None and not 0.0 < self.merge_threshold <= 1.0:
            raise ConfigurationError(
                f"merge_threshold must lie in (0, 1], got {self.merge_threshold}"
            )
        if self.max_growth_steps is not None and self.max_growth_steps <= 0:
            raise ConfigurationError(
                f"max_growth_steps must be positive, got {self.max_growth_steps}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.spectral_solver not in SPECTRAL_SOLVERS:
            raise ConfigurationError(
                f"spectral_solver must be one of {SPECTRAL_SOLVERS}; "
                f"got {self.spectral_solver!r}"
            )
        if self.halting is None:
            self.halting = StagnationHalting(patience=20)
