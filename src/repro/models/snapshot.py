"""The write-snapshot model.

One round: every participant writes, then takes an *atomic snapshot* of the
whole round array.  Because snapshots are linearizable, any two views are
comparable under inclusion — the views of one round form a chain (footnote 1
of the paper).  The one-round complex sits strictly between immediate
snapshot and collect (Fig. 8(c)).
"""

from __future__ import annotations

from repro.models.base import IteratedModel

__all__ = ["SnapshotModel"]


class SnapshotModel(IteratedModel):
    """Iterated write-snapshot (atomic collect)."""

    name = "write-snapshot"
    schedule_kind = "snapshot"
