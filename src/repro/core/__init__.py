"""The paper's primary contribution: the OCA algorithm and its machinery.

Layout mirrors the paper's sections:

* :mod:`~repro.core.vector_space`, :mod:`~repro.core.spectral` — Section II
  (virtual vector representation, ``c = -1/lambda_min`` via Lanczos, or
  the paper's power method with ``spectral_solver="power"``).
* :mod:`~repro.core.fitness` — Section III (the directed Laplacian ``L``).
* :mod:`~repro.core.state`, :mod:`~repro.core.growth`,
  :mod:`~repro.core.seeding`, :mod:`~repro.core.halting`,
  :mod:`~repro.core.postprocess`, :mod:`~repro.core.oca` — Section IV.
"""

from .spectral import (
    PowerMethodResult,
    power_method,
    lambda_max,
    lambda_min,
    lambda_min_lanczos,
    adjacency_extreme_eigenvalues,
)
from .vector_space import (
    MAX_C_MARGIN,
    SPECTRAL_SOLVERS,
    DEFAULT_SPECTRAL_SOLVER,
    admissible_c,
    shared_admissible_c,
    phi,
    VirtualVectorRepresentation,
)
from .fitness import (
    FitnessFunction,
    DirectedLaplacianFitness,
    PhiFitness,
    LFKFitness,
    directed_laplacian_value,
    phi_value,
)
from .state import ArrayCommunityState
from .growth import GrowthResult, grow_community
from .seeding import (
    SeedingStrategy,
    RandomSeeding,
    DegreeBiasedSeeding,
    UncoveredFirstSeeding,
    make_seeding,
)
from .halting import (
    RunStatistics,
    HaltingCriterion,
    MaxRunsHalting,
    CoverageHalting,
    StagnationHalting,
    TimeBudgetHalting,
    make_halting,
)
from .postprocess import merge_similar, assign_orphans, postprocess
from .config import OCAConfig
from .oca import OCA, OCAResult

__all__ = [
    "PowerMethodResult",
    "power_method",
    "lambda_max",
    "lambda_min",
    "lambda_min_lanczos",
    "adjacency_extreme_eigenvalues",
    "MAX_C_MARGIN",
    "SPECTRAL_SOLVERS",
    "DEFAULT_SPECTRAL_SOLVER",
    "admissible_c",
    "shared_admissible_c",
    "phi",
    "VirtualVectorRepresentation",
    "FitnessFunction",
    "DirectedLaplacianFitness",
    "PhiFitness",
    "LFKFitness",
    "directed_laplacian_value",
    "phi_value",
    "ArrayCommunityState",
    "GrowthResult",
    "grow_community",
    "SeedingStrategy",
    "RandomSeeding",
    "DegreeBiasedSeeding",
    "UncoveredFirstSeeding",
    "make_seeding",
    "RunStatistics",
    "HaltingCriterion",
    "MaxRunsHalting",
    "CoverageHalting",
    "StagnationHalting",
    "TimeBudgetHalting",
    "make_halting",
    "merge_similar",
    "assign_orphans",
    "postprocess",
    "OCAConfig",
    "OCA",
    "OCAResult",
]
