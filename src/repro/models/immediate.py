"""The iterated immediate snapshot (IIS) model.

One round: a sequence of *blocks* of processes; the processes of a block
write simultaneously and immediately take an atomic snapshot, so each sees
exactly the writes of its own and all earlier blocks.  The one-round complex
``P^(1)(σ)`` is the **standard chromatic subdivision** of ``σ``
(Herlihy–Shavit): ``{(i, V_i)}`` is a simplex iff for all ``i, j``,
``j ∈ V_i`` or ``i ∈ V_j``, and ``j ∈ V_i ⟹ V_j ⊆ V_i`` (Section 2.2).

This is the model in which all the paper's approximate-agreement lower
bounds are proved (lower bounds in IIS imply lower bounds in the weaker
models and in the non-iterated variants).
"""

from __future__ import annotations

from repro.models.base import IteratedModel
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

__all__ = ["ImmediateSnapshotModel", "standard_chromatic_subdivision"]


class ImmediateSnapshotModel(IteratedModel):
    """Iterated immediate snapshot (the wait-free IIS model)."""

    name = "iterated-immediate-snapshot"
    schedule_kind = "immediate"


def standard_chromatic_subdivision(sigma: Simplex) -> SimplicialComplex:
    """The standard chromatic subdivision of a simplex.

    Convenience wrapper equal to one round of IIS applied to ``σ`` together
    with all its faces — i.e. ``Ξ(σ̄)``, the full subdivided simplex
    including its subdivided boundary.
    """
    model = ImmediateSnapshotModel()
    return model.protocol_complex(SimplicialComplex.from_simplex(sigma))
