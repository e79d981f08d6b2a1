"""The canonical isomorphism ``χ`` of Eq. (1).

For two input simplices ``σ = {(i, x_i)}`` and ``σ' = {(i, x'_i)}`` on
the same colors, the one-round complexes ``P^(1)(σ)`` and ``P^(1)(σ')``
are isomorphic via the vertex relabeling
``(i, {(j, x_j) : j ∈ J_i}) ↦ (i, {(j, x'_j) : j ∈ J_i})`` — and the same
holds round after round.  :func:`canonical_isomorphism` implements the
relabeling generically by substituting base values inside nested views.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.errors import ChromaticityError
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex
from repro.topology.views import View

__all__ = [
    "relabel_value",
    "relabel_vertex",
    "relabel_complex",
    "canonical_isomorphism",
]


def relabel_value(
    value: Hashable, base_values: Mapping[int, Hashable]
) -> Hashable:
    """Substitute base input values inside a (possibly nested) view value.

    ``base_values`` maps each color to its new base value.  Plain values at
    the bottom of the nesting are replaced by the new value of their carrying
    color, which is threaded through the recursion by the enclosing
    :class:`View`.  Tuples (used for augmented models' ``(b, view)`` values)
    are relabeled component-wise, leaving non-view components untouched.
    """
    if isinstance(value, View):
        return View(
            (color, _relabel_entry(color, entry, base_values))
            for color, entry in value
        )
    if isinstance(value, tuple):
        return tuple(relabel_value(part, base_values) for part in value)
    return value


def _relabel_entry(
    color: int, entry: Hashable, base_values: Mapping[int, Hashable]
) -> Hashable:
    """Relabel a single ``(color, entry)`` pair inside a view."""
    if isinstance(entry, (View, tuple)):
        return relabel_value(entry, base_values)
    # Base of the recursion: `entry` is the raw input of `color`.
    if color not in base_values:
        raise ChromaticityError(
            f"no replacement value provided for color {color}"
        )
    return base_values[color]


def relabel_vertex(
    vertex: Vertex, base_values: Mapping[int, Hashable]
) -> Vertex:
    """Apply :func:`relabel_value` to a protocol-complex vertex."""
    return Vertex(vertex.color, relabel_value(vertex.value, base_values))


def relabel_complex(
    complex_: SimplicialComplex, base_values: Mapping[int, Hashable]
) -> SimplicialComplex:
    """Relabel every vertex of a protocol complex with new base inputs."""
    return SimplicialComplex(
        Simplex(
            relabel_vertex(vertex, base_values) for vertex in facet.vertices
        )
        for facet in complex_.facets
    )


def canonical_isomorphism(
    source: SimplicialComplex,
    sigma: Simplex,
    sigma_prime: Simplex,
) -> dict[Vertex, Vertex]:
    """The canonical isomorphism ``χ : P^(1)(σ) → P^(1)(σ')`` of Eq. (1).

    Parameters
    ----------
    source:
        The protocol complex obtained from input simplex ``sigma``.
    sigma, sigma_prime:
        Input simplices on the same color set.  Vertex values of ``source``
        are rewritten by substituting ``σ'``'s inputs for ``σ``'s.

    Returns
    -------
    dict[Vertex, Vertex]
        The relabeling, on every vertex of ``source``; its image is
        :func:`relabel_complex` of ``source`` with ``σ'``'s inputs.
    """
    if sigma.ids != sigma_prime.ids:
        raise ChromaticityError(
            "canonical isomorphism requires input simplices on the same "
            f"colors, got {sorted(sigma.ids)} and {sorted(sigma_prime.ids)}"
        )
    replacements = sigma_prime.as_mapping()
    return {
        vertex: relabel_vertex(vertex, replacements)
        for vertex in source.vertices
    }
