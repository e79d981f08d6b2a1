"""The task triple ``Π = (I, O, Δ)``.

``Δ`` maps each input simplex to the complex of its legal outputs, on the
same colors.  The paper deliberately does **not** require ``Δ`` to be a
carrier (monotone) map — local tasks (Definition 1) are not monotone.
:class:`Task` checks nothing at construction: that every task family's
``Δ`` preserves names and stays inside ``O`` is a tier-1 test
(``tests/tasks/test_well_formed.py``).
"""

from __future__ import annotations

from typing import Callable

from repro.topology.carrier import CarrierMap
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

__all__ = ["Task"]

DeltaFunction = Callable[[Simplex], SimplicialComplex]


class Task:
    """An ``n``-process task ``(I, O, Δ)``.

    Parameters
    ----------
    name:
        Human-readable label used in reports.
    input_complex:
        The complex ``I`` of legal input states.
    output_complex:
        The complex ``O`` of legal output states.
    delta:
        A callable ``σ ↦ SimplicialComplex``; results are memoized
        through a :class:`CarrierMap`.
    """

    def __init__(
        self,
        name: str,
        input_complex: SimplicialComplex,
        output_complex: SimplicialComplex,
        delta: DeltaFunction,
    ) -> None:
        self.name = name
        self.input_complex = input_complex
        self.output_complex = output_complex
        self._delta = CarrierMap(input_complex, delta, name=f"Δ[{name}]")

    # ------------------------------------------------------------------
    # Specification access
    # ------------------------------------------------------------------
    def delta(self, sigma: Simplex) -> SimplicialComplex:
        """The complex ``Δ(σ)`` of legal outputs for input ``σ``."""
        return self._delta(sigma)

    @property
    def delta_map(self) -> CarrierMap:
        """The memoized ``Δ`` as a :class:`CarrierMap`."""
        return self._delta

    def with_name(self, name: str) -> "Task":
        """A renamed view of the same task."""
        return Task(name, self.input_complex, self.output_complex, self.delta)

    def __repr__(self) -> str:
        return (
            f"Task({self.name!r}, inputs={self.input_complex!r}, "
            f"outputs={self.output_complex!r})"
        )
