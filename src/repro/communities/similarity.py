"""Community similarity ``rho`` — Equation (V.1) of the paper.

The paper defines, for communities ``C`` and ``D``::

    rho(C, D) = 1 - (|C \\ D| + |D \\ C|) / |C ∪ D|

which is algebraically identical to the Jaccard index
``|C ∩ D| / |C ∪ D|`` (the symmetric difference is the union minus the
intersection).  We keep the paper's formulation; the tests check it
against the Jaccard form.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable

__all__ = ["rho"]

Node = Hashable


def rho(c: AbstractSet[Node], d: AbstractSet[Node]) -> float:
    """Similarity of two node sets per Eq. (V.1).

    Returns a value in ``[0, 1]``: 1 for identical sets, 0 for disjoint
    sets.  Two empty sets are defined as identical (similarity 1), which
    keeps ``rho`` reflexive over its whole domain.
    """
    union = len(c | d)
    if union == 0:
        return 1.0
    symmetric_difference = len(c - d) + len(d - c)
    return 1.0 - symmetric_difference / union
