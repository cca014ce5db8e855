"""Figure 5: execution time against graph size (log-scale y in the paper).

The paper generates LFR graphs with av.deg = 50, max.deg = 150 and
community sizes in [500, 700], sweeps n from 5,000 to 25,000, and times
the three algorithms *without post-processing*.  Expected shape:

* CFinder is orders of magnitude slower and blows up first (the clique
  enumeration), to the point the paper discards it for larger graphs;
* OCA is the fastest and scales near-linearly;
* LFK sits between the two.

CFinder's cost in the paper is the published clique-pair scan, which
this reproduction replaces by an equivalent subset-grouping kernel (see
:mod:`repro.baselines.cpm`), so its wall time no longer blows up.  The
result therefore also records the scan's cost as a work count at every
size CFinder ran: the ``C(#cliques, 2)`` clique pairs the published
procedure compares, next to the ``sum C(|c|, k-1)`` subsets the kernel
groups.  Counts do not depend on the host.

The default parameters here are scaled down proportionally for the
Python substrate; ``paper_scale=True`` restores the paper's
exact generator parameters for long runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .._rng import SeedLike, as_random, spawn_seed
from ..baselines.cliques import clique_ids
from ..detectors.builtin import CFINDER_K
from ..generators import LFRParams, lfr_graph
from ..graph.csr import compile_graph
from .reporting import Series, series_table
from .runner import run_algorithm

__all__ = ["Figure5Result", "run_figure5", "DEFAULT_SIZES"]

DEFAULT_SIZES = (500, 1000, 2000, 4000)

#: CFinder is dropped from sizes above this default cap, mirroring the
#: paper's "prohibitively slow ... we discard it" decision.
DEFAULT_CFINDER_CAP = 2000


@dataclass
class Figure5Result:
    """Runtime-vs-n series per algorithm (CFinder may stop early), and
    CFinder's overlap work counts at the sizes it ran."""

    series: List[Series] = field(default_factory=list)
    #: ``clique pairs`` and ``k-1 subsets``, filled where CFinder ran.
    work: List[Series] = field(
        default_factory=lambda: [Series("clique pairs"), Series("k-1 subsets")]
    )

    def render(self) -> str:
        """The figure's data as aligned text tables: seconds, then the
        overlap work counts if CFinder ran."""
        table = series_table(self.series, x_label="nodes")
        if self.work[0].xs:
            table += "\n\n" + series_table(self.work, x_label="nodes")
        return table

    def series_by_name(self, name: str) -> Series:
        """The curve of one algorithm or one work count."""
        for s in self.series + self.work:
            if s.name == name:
                return s
        raise KeyError(name)


def _overlap_work(graph) -> Tuple[int, int]:
    """CFinder's overlap work on ``graph``, as two counts.

    Returns ``(pairs, subsets)``: the clique pairs the published
    procedure compares, ``C(#cliques, 2)`` over the maximal cliques of
    at least ``k`` nodes, and the (k-1)-subsets the subset-grouping
    kernel sorts, ``sum C(|c|, k - 1)`` over the same cliques.  The
    cliques come from the compiled form the CFinder run cached on
    ``graph``.
    """
    k = CFINDER_K
    cliques = clique_ids(compile_graph(graph))
    sizes = [len(clique) for clique in cliques if len(clique) >= k]
    return math.comb(len(sizes), 2), sum(math.comb(size, k - 1) for size in sizes)


def _params_for(n: int, paper_scale: bool) -> LFRParams:
    if paper_scale:
        return LFRParams(
            n=n,
            mu=0.3,
            average_degree=50.0,
            max_degree=150,
            min_community=500,
            max_community=700,
        )
    return LFRParams(
        n=n,
        mu=0.3,
        average_degree=20.0,
        max_degree=60,
        min_community=40,
        max_community=80,
    )


def run_figure5(
    sizes: Sequence[int] = DEFAULT_SIZES,
    algorithms: Sequence[str] = ("OCA", "LFK", "CFinder"),
    cfinder_cap: Optional[int] = DEFAULT_CFINDER_CAP,
    paper_scale: bool = False,
    seed: SeedLike = None,
) -> Figure5Result:
    """Reproduce Figure 5 at a configurable scale.

    No post-processing is applied (matching the paper).  ``cfinder_cap``
    skips CFinder above that size; ``None`` never skips.
    """
    # OCA's default Lanczos solve imports scipy.sparse.linalg on first
    # use (0.12-0.20 s); load it here so no timed point pays for it.
    import scipy.sparse.linalg  # noqa: F401

    rng = as_random(seed)
    result = Figure5Result(series=[Series(name) for name in algorithms])
    for n in sizes:
        instance = lfr_graph(_params_for(n, paper_scale), seed=spawn_seed(rng))
        for series, name in zip(result.series, algorithms):
            if name == "CFinder" and cfinder_cap is not None and n > cfinder_cap:
                continue
            run = run_algorithm(
                name, instance.graph, seed=spawn_seed(rng), quality_mode=False
            )
            series.append(n, run.elapsed_seconds)
            if name == "CFinder":
                for counts, value in zip(result.work, _overlap_work(instance.graph)):
                    counts.append(n, value)
    return result


if __name__ == "__main__":
    print(run_figure5(seed=0).render())
