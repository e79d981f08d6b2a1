"""Fixed points of the closure operator and Lemma 1.

A task ``Π`` is a *fixed point* for model ``M`` when ``CL_M(Π) = Π``, i.e.
``Δ'(σ) = Δ(σ)`` for every input simplex.  Lemma 1: a fixed point is either
solvable in zero rounds or unsolvable — iterating the speedup theorem would
otherwise shrink a ``t``-round algorithm to a 0-round one.

Consensus is a fixed point of wait-free IIS (Corollary 1) and the relaxed
consensus of Corollary 2 is a fixed point of IIS+test&set; both yield their
impossibility results through :func:`impossibility_from_fixed_point`,
the one place that compares ``Δ'`` with ``Δ``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.closure import ClosureComputer
from repro.core.solvability import is_solvable
from repro.models.base import ComputationModel
from repro.tasks.task import Task
from repro.telemetry import span
from repro.topology.simplex import Simplex

__all__ = ["impossibility_from_fixed_point", "FixedPointReport"]


@dataclass
class FixedPointReport:
    """Certificate produced by :func:`impossibility_from_fixed_point`.

    Attributes
    ----------
    fixed_point:
        ``CL_M(Π) = Π`` held on the checked simplices.
    zero_round_solvable:
        Whether a 0-round algorithm solves the instance.
    counterexamples:
        Input simplices where ``Δ'(σ) ≠ Δ(σ)``, if any.
    """

    task_name: str
    model_name: str
    fixed_point: bool
    zero_round_solvable: bool
    counterexamples: list[Simplex] = field(default_factory=list)

    @property
    def unsolvable(self) -> bool:
        """Lemma 1's conclusion: fixed point + not 0-round ⟹ unsolvable."""
        return self.fixed_point and not self.zero_round_solvable

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.unsolvable:
            return (
                f"{self.task_name} is a fixed point of {self.model_name} and "
                "not 0-round solvable ⟹ unsolvable (Lemma 1)"
            )
        if not self.fixed_point:
            return (
                f"{self.task_name} is NOT a fixed point of {self.model_name} "
                f"({len(self.counterexamples)} counterexample simplices)"
            )
        return f"{self.task_name} is solvable in zero rounds"


def impossibility_from_fixed_point(
    task: Task,
    model: ComputationModel,
    input_simplices: Optional[Iterable[Simplex]] = None,
) -> FixedPointReport:
    """Run the full Lemma 1 pipeline and return a certificate.

    Checks the fixed-point property ``Δ' = Δ`` simplex by simplex, then
    decides 0-round solvability; ``report.unsolvable`` is the impossibility
    verdict.
    """
    computer = ClosureComputer(task, model)
    pool = (
        list(input_simplices)
        if input_simplices is not None
        else list(task.input_complex)
    )
    with span(
        "core/fixed-point",
        task=task.name,
        model=model.name,
        inputs=len(pool),
    ) as report_span:
        counterexamples: list[Simplex] = []
        for sigma in pool:
            closed = computer.delta_prime(sigma).simplices
            if closed != task.delta(sigma).simplices:
                counterexamples.append(sigma)
        zero_round = is_solvable(task, model, 0, input_simplices=pool)
        report = FixedPointReport(
            task_name=task.name,
            model_name=model.name,
            fixed_point=not counterexamples,
            zero_round_solvable=zero_round,
            counterexamples=counterexamples,
        )
        report_span.set_attribute("unsolvable", report.unsolvable)
        return report
