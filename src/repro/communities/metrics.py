"""Overlap statistics of a cover, reported by the Wikipedia experiment
and the algorithm-comparison example.
"""

from __future__ import annotations

from typing import Dict

from .cover import Cover

__all__ = ["overlap_statistics"]


def overlap_statistics(cover: Cover) -> Dict[str, float]:
    """Summary of how overlapping a cover is.

    Returns ``communities``, ``covered_nodes``, ``overlapping_nodes``,
    ``max_memberships`` and ``mean_memberships`` in one dict (used by the
    experiment reports).
    """
    counts = cover.membership_counts()
    covered = len(counts)
    if covered == 0:
        return {
            "communities": float(len(cover)),
            "covered_nodes": 0.0,
            "overlapping_nodes": 0.0,
            "max_memberships": 0.0,
            "mean_memberships": 0.0,
        }
    return {
        "communities": float(len(cover)),
        "covered_nodes": float(covered),
        "overlapping_nodes": float(sum(1 for k in counts.values() if k >= 2)),
        "max_memberships": float(max(counts.values())),
        "mean_memberships": sum(counts.values()) / covered,
    }
