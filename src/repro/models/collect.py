"""The write-collect model.

One round: every participant writes its view to its register of the round's
array and then reads all registers sequentially, in arbitrary order
(Algorithm 1).  The resulting one-round complex is the largest of the three
models — its facets are exactly the view simplices of the collect matrices
of Appendix A.3.4 (Fig. 8(d) shows the simplices unique to it).
"""

from __future__ import annotations

from repro.models.base import IteratedModel

__all__ = ["CollectModel"]


class CollectModel(IteratedModel):
    """Iterated write-collect (sequential reads)."""

    name = "write-collect"
    schedule_kind = "collect"
