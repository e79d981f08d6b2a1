"""Iterated asynchronous computation models.

One round of the generic full-information protocol (Algorithm 1) is a
*communication pattern*: which processes see which writes.  The paper encodes
patterns as matrices ``[[P_0 … P_r],[I_0 … I_r]]`` (Appendix A.3.4); this
subpackage enumerates them, one shared pool per model and participant set
(:func:`~repro.models.schedules.distinct_schedules`), for the three models
of the paper —

* **write-collect** (:class:`~repro.models.collect.CollectModel`),
* **write-snapshot** (:class:`~repro.models.snapshot.SnapshotModel`),
* **iterated immediate snapshot** —  IIS
  (:class:`~repro.models.immediate.ImmediateSnapshotModel`),

and turns them into one-round protocol complexes ``P^(1)(σ)`` and iterated
protocol complexes ``P^(t)`` (:mod:`repro.models.protocol`).  Affine
restrictions of IIS live in :mod:`repro.models.affine`.
"""

from repro.models.schedules import (
    OneRoundSchedule,
    ordered_partitions,
    collect_schedules,
    snapshot_schedules,
    immediate_snapshot_schedules,
    schedule_from_blocks,
    distinct_schedules,
)
from repro.models.base import IteratedModel, ComputationModel
from repro.models.collect import CollectModel
from repro.models.snapshot import SnapshotModel
from repro.models.immediate import (
    ImmediateSnapshotModel,
    standard_chromatic_subdivision,
)
from repro.models.affine import (
    AffineModel,
    k_concurrency_model,
    no_synchrony_model,
)
from repro.models.protocol import ProtocolOperator

__all__ = [
    "OneRoundSchedule",
    "ordered_partitions",
    "collect_schedules",
    "snapshot_schedules",
    "immediate_snapshot_schedules",
    "schedule_from_blocks",
    "distinct_schedules",
    "IteratedModel",
    "ComputationModel",
    "CollectModel",
    "SnapshotModel",
    "ImmediateSnapshotModel",
    "standard_chromatic_subdivision",
    "AffineModel",
    "k_concurrency_model",
    "no_synchrony_model",
    "ProtocolOperator",
]
