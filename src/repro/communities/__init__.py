"""Community structures and the paper's quality measures.

The overlapping :class:`Cover` is the primary structure (the paper's whole
point); :class:`Partition` covers the disjoint special case.  The module
also houses the paper's two evaluation measures — similarity ``rho``
(Eq. V.1) and suitability ``Theta`` (Eq. V.2) — plus overlap statistics,
the cover writer and a per-community comparison report.
"""

from .cover import Community, Cover, Partition
from .similarity import rho
from .suitability import theta
from .metrics import overlap_statistics
from .io import write_cover
from .report import comparison_report

__all__ = [
    "Community",
    "Cover",
    "Partition",
    "rho",
    "theta",
    "overlap_statistics",
    "write_cover",
    "comparison_report",
]
