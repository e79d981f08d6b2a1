"""Augmented models: IIS plus a black box (Algorithm 2).

One round of the augmented model, starting from carrier simplex ``σ`` with
participants ``I``: pick an immediate-snapshot schedule over ``I``; every
process ``i`` writes, invokes the round's box copy with input
``a_i = α(i, V_i)``, and collects.  Its new value is the pair
``(b_i, {(j, V_j) : j seen})`` where ``b_i`` is the box's answer.

The box is consistent, so for a fixed schedule the admissible executions are
exactly the box's output assignments; the one-round complex is the union of
the view simplices decorated by each assignment.  This reproduces Fig. 5
(test&set: each subdivision vertex is duplicated per outcome except solo
vertices, which always win) and Fig. 7 (binary consensus: two decorated
copies of the subdivision minus the assignments invalid for the inputs).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional

from repro.errors import ModelError
from repro.models.base import ComputationModel
from repro.models.schedules import OneRoundSchedule, distinct_schedules
from repro.objects.base import BlackBox
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex
from repro.topology.views import View

__all__ = ["AugmentedModel"]

InputFunction = Callable[[Vertex], Hashable]


class AugmentedModel(ComputationModel):
    """The wait-free IIS model augmented with a black-box object.

    Parameters
    ----------
    box:
        The shared object invoked once per process per round.
    input_function:
        ``α``: maps each carrier vertex ``(i, V_i)`` to the input the
        process feeds the box.  May be omitted for boxes that ignore inputs
        (test&set).  Theorem 4's ID-only restriction is obtained with
        :func:`repro.objects.beta.beta_input_function`.
    name:
        Label for reports; defaults to ``IIS+<box name>``.
    """

    def __init__(
        self,
        box: BlackBox,
        input_function: Optional[InputFunction] = None,
        name: Optional[str] = None,
    ) -> None:
        if input_function is None and box.requires_inputs():
            raise ModelError(
                f"box {box.name!r} requires inputs: provide an input "
                "function α"
            )
        self._box = box
        self._alpha = input_function or (lambda vertex: None)
        self.name = name or f"IIS+{box.name}"

    @property
    def box(self) -> BlackBox:
        """The black-box object of the model."""
        return self._box

    def input_of(self, vertex: Vertex) -> Hashable:
        """The box input ``α(i, V_i)`` computed from a carrier vertex."""
        return self._alpha(vertex)

    # ------------------------------------------------------------------
    # ComputationModel interface
    # ------------------------------------------------------------------
    def schedules(self, ids: Iterable[int]) -> tuple[OneRoundSchedule, ...]:
        """The immediate-snapshot schedules over ``ids``, one per view map."""
        return distinct_schedules("immediate", ids)

    def _build_one_round_complex(self, sigma: Simplex) -> SimplicialComplex:
        values = sigma.as_mapping()
        inputs = {
            vertex.color: self._alpha(vertex) for vertex in sigma.vertices
        }
        facets = set()
        for schedule in self.schedules(sigma.ids):
            views = [
                (group, View((j, values[j]) for j in seen))
                for group, seen in zip(schedule.groups, schedule.views)
            ]
            for assignment in self._box.assignments(schedule, inputs):
                facets.add(
                    Simplex(
                        Vertex(process, (assignment[process], view))
                        for group, view in views
                        for process in group
                    )
                )
        # Every schedule's view map covers all of ID(σ), so all facets share
        # one dimension and the deduplicated family is maximal as-is.
        return SimplicialComplex.from_maximal(facets)

    def shape_key(self, sigma: Simplex, rounds: int) -> Hashable:
        """``ID(σ)`` and the box inputs ``α(σ_i)``, when they fix the rounds.

        The box sees ``α`` of each carrier vertex, which may read its
        value.  In round one the carrier is ``σ``, so ``α(σ_i)`` fixes
        what the box is fed; a box that ignores inputs is fed nothing
        that matters.  Later rounds feed it ``α`` of protocol vertices,
        which ``σ``'s inputs alone do not fix: ``σ`` itself, no sharing.
        """
        if rounds == 1 or not self._box.requires_inputs():
            return (
                sigma.ids,
                tuple(self.input_of(vertex) for vertex in sigma.vertices),
            )
        return sigma

    def solo_value(self, vertex: Vertex) -> Hashable:
        solo_box = self._box.solo_output(vertex.color, self._alpha(vertex))
        return (solo_box, View([(vertex.color, vertex.value)]))
