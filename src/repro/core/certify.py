"""An independent check of "solvable" verdicts.

A :class:`~repro.core.solvability.DecisionMap` is a claim that a
chromatic simplicial map ``f : P^(t) → O`` carried by ``Δ`` exists.
:func:`check_decision_map` re-checks that claim on the original
complexes, without the solver's compiled tables (vertex ranks, output
bits, allowed masks): a verdict is then trusted only as far as these few
lines are.

The checked properties are exactly Section 2.2's solvability condition,
on the protocol complexes ``P^(t)(σ)`` of the given input simplices:

* every vertex of every ``P^(t)(σ)`` has an image;
* the map is chromatic there (every image has the color of its source);
* the image of every facet of ``P^(t)(σ)`` is a simplex of ``Δ(σ)``
  (hence so is the image of every face, ``Δ(σ)`` being face-closed).

The map is read only at the vertices of those complexes, one key at a
time, so checking a few input simplices of a large map reads only their
part of it.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.solvability import DecisionMap
from repro.errors import SolvabilityError
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

__all__ = ["check_decision_map"]


def check_decision_map(
    input_simplices: Iterable[Simplex],
    delta_of: Callable[[Simplex], SimplicialComplex],
    protocol_of: Callable[[Simplex], SimplicialComplex],
    decision: DecisionMap,
) -> None:
    """Raise :class:`SolvabilityError` unless ``decision`` solves the instance.

    The parameters are the input simplices whose executions constrain
    the map, ``σ ↦ Δ(σ)`` and ``σ ↦ P^(t)(σ)``; pass
    ``operator.of_simplex`` so that the complexes are built from views,
    not from the solver's templates.  Vertices and facets are visited
    in sorted order, so the reported violation is the same on every
    run.  ``decision.assignment`` is only asked for those vertices,
    never iterated.
    """
    assignment = decision.assignment
    for sigma in input_simplices:
        allowed = delta_of(sigma)
        protocol = protocol_of(sigma)
        for vertex in protocol.sorted_vertices():
            if vertex not in assignment:
                raise SolvabilityError(
                    f"the decision map leaves {vertex!r} of the protocol "
                    f"complex of {sigma!r} unassigned"
                )
            image = assignment[vertex]
            if image.color != vertex.color:
                raise SolvabilityError(
                    f"the decision map is not chromatic: {vertex!r} has "
                    f"color {vertex.color} but its image {image!r} has "
                    f"color {image.color}"
                )
        for facet in protocol.sorted_facets():
            image = Simplex(assignment[v] for v in facet.vertices)
            if image not in allowed:
                raise SolvabilityError(
                    f"the decision map sends the facet {facet!r} of the "
                    f"protocol complex of {sigma!r} to {image!r}, which "
                    f"is not a simplex of Δ(σ)"
                )
