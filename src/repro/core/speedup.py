"""The asynchronous speedup theorem, constructively (Theorems 1 and 2).

Given a decision map ``f`` solving ``Π`` in ``t`` rounds, the proof of
Theorem 1 *constructs* a map ``f'`` solving ``CL_M(Π)`` in ``t - 1``
rounds:

    ``f'(i, V_i) = f(i, {(i, V_i)})``

— evaluate ``f`` on the round-``t`` vertex obtained when process ``i`` runs
its last round solo.  For augmented models (Theorem 2) the solo extension
also carries the black box's solo answer:
``f'(i, V_i) = f(i, (b_i, {(i, V_i)}))``.

:func:`speedup_decision_map` performs the construction;
:func:`verify_speedup_theorem` additionally *checks* the theorem's statement
on a concrete instance: it verifies that ``f`` solves ``Π`` in ``t`` rounds
(through :func:`repro.core.certify.check_decision_map`) and that the
constructed ``f'`` solves the closure in ``t - 1`` rounds (every image
configuration ``τ = f'(ρ)`` is certified by exhibiting the 1-round
solvability of the local task ``Π_{τ,σ}``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.certify import check_decision_map
from repro.core.closure import ClosureComputer
from repro.core.solvability import DecisionMap
from repro.errors import SolvabilityError
from repro.models.base import ComputationModel
from repro.models.protocol import ProtocolOperator
from repro.tasks.task import Task
from repro.telemetry import span
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

__all__ = ["speedup_decision_map", "verify_speedup_theorem", "SpeedupReport"]


def speedup_decision_map(
    task: Task,
    model: ComputationModel,
    decision_map: DecisionMap,
    operator: Optional[ProtocolOperator] = None,
) -> DecisionMap:
    """Construct ``f'`` from ``f`` per the proof of Theorems 1/2.

    Parameters
    ----------
    decision_map:
        A map solving ``task`` after ``decision_map.rounds ≥ 1`` rounds.

    Returns
    -------
    DecisionMap
        ``f'`` defined on every vertex of ``P^(t-1)``, with
        ``rounds = t - 1``.
    """
    rounds = decision_map.rounds
    if rounds < 1:
        raise SolvabilityError(
            "the speedup construction needs a map deciding after ≥ 1 rounds"
        )
    op = operator or ProtocolOperator(model)
    assignment: dict[Vertex, Vertex] = {}
    for sigma in task.input_complex:
        previous = op.of_simplex(sigma, rounds - 1)
        for vertex in previous.vertices:
            if vertex in assignment:
                continue
            solo = model.solo_vertex(vertex)
            try:
                assignment[vertex] = decision_map.assignment[solo]
            except KeyError:
                raise SolvabilityError(
                    f"decision map is undefined on the solo extension "
                    f"{solo!r} of {vertex!r}; was it computed for "
                    f"{rounds} rounds on the same input complex?"
                ) from None
    return DecisionMap(assignment, rounds - 1)


@dataclass
class SpeedupReport:
    """Outcome of a constructive verification of the speedup theorem.

    Attributes
    ----------
    rounds:
        The round count ``t`` of the original map.
    original_valid:
        Whether ``f`` indeed solves the task in ``t`` rounds.
    sped_up_valid:
        Whether the constructed ``f'`` solves the closure in ``t-1`` rounds.
    violations:
        Any ``(σ, ρ, τ)`` triples where ``τ = f'(ρ) ∉ Δ'(σ)`` (empty when
        the theorem holds, as it must on models allowing solo executions).
    """

    rounds: int
    original_valid: bool
    sped_up_valid: bool
    violations: list[tuple[Simplex, Simplex, Simplex]] = field(
        default_factory=list
    )

    @property
    def holds(self) -> bool:
        """The theorem's statement held on this instance."""
        return self.original_valid and self.sped_up_valid


def verify_speedup_theorem(
    task: Task,
    model: ComputationModel,
    decision_map: DecisionMap,
) -> SpeedupReport:
    """Check Theorem 1/2 end to end on a concrete instance.

    Verifies that ``decision_map`` solves ``task`` in ``t`` rounds, builds
    ``f'``, and certifies that ``f'`` solves ``CL_M(task)`` in ``t - 1``
    rounds by deciding closure membership of every image configuration.
    """
    rounds = decision_map.rounds
    with span(
        "core/speedup-verify",
        task=task.name,
        model=model.name,
        rounds=rounds,
    ) as verify_span:
        operator = ProtocolOperator(model)
        try:
            check_decision_map(
                task.input_complex,
                task.delta,
                lambda sigma: operator.of_simplex(sigma, rounds),
                decision_map,
            )
        except SolvabilityError:
            original_valid = False
        else:
            original_valid = True

        faster = speedup_decision_map(task, model, decision_map, operator)
        closure = ClosureComputer(task, model)
        violations: list[tuple[Simplex, Simplex, Simplex]] = []
        for sigma in task.input_complex:
            protocol = operator.of_simplex(sigma, rounds - 1)
            for facet in protocol.facets:
                tau = faster.output_simplex(facet)
                if not closure.contains(sigma, tau):
                    violations.append((sigma, facet, tau))
        report = SpeedupReport(
            rounds=rounds,
            original_valid=original_valid,
            sped_up_valid=not violations,
            violations=violations,
        )
        verify_span.set_attribute("holds", report.holds)
        return report
