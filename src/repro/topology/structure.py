"""Structural invariants of complexes: pseudomanifolds and boundaries.

The one-round IIS complex of a simplex is a *subdivision* of it, so it must
be a pseudomanifold with the subdivided boundary of the original simplex as
its boundary.  These utilities let tests assert such facts directly —
useful sanity nets for anyone extending the models.

Definitions used (standard):

* a pure ``d``-complex is a **pseudomanifold** if every ridge
  (``(d-1)``-face) lies in at most two facets and the facet adjacency graph
  (facets sharing a ridge) is connected;
* its **boundary** is the complex generated by the ridges lying in exactly
  one facet.

Both invariants run mask-native on the complex's canonical
``(table, facet masks)`` index via :mod:`repro.topology.kernels`: ridge
enumeration is bit-clear iteration, the facet-adjacency graph is built
from the ridge table keyed by ``(table_id, mask)``-canonical ridge
masks, and connectivity is union-find over facet positions.  ``Simplex``
objects are only materialized at the API boundary
(:func:`ridge_incidence`'s return value); :func:`is_pseudomanifold`
decides entirely at the mask level, and :func:`boundary_complex` hands
mask arrays straight to the trusted complex constructor.
"""

from __future__ import annotations

from repro.topology.complex import SimplicialComplex, _prune_masks
from repro.topology.kernels import (
    component_count,
    facet_adjacency,
    ridge_table,
)
from repro.topology.simplex import Simplex

__all__ = [
    "ridge_incidence",
    "is_pseudomanifold",
    "boundary_complex",
]


def ridge_incidence(
    complex_: SimplicialComplex,
) -> dict[Simplex, list[Simplex]]:
    """Map each ridge ((dim-1)-face of a facet) to the facets containing it.

    Only meaningful for pure complexes of dimension ≥ 1; for a pure
    0-complex the result is empty.  Entries (and each facet list) come
    out in deterministic mask order.
    """
    table, masks = complex_._ensure_index()
    decode = table.decode_mask_trusted
    return {
        decode(ridge): [decode(masks[position]) for position in positions]
        for ridge, positions in ridge_table(masks).items()
    }


def is_pseudomanifold(
    complex_: SimplicialComplex, require_connected: bool = True
) -> bool:
    """Whether the complex is a pseudomanifold (possibly with boundary).

    Checks purity, the two-facets-per-ridge condition, and (by default)
    strong connectivity of the facet-adjacency graph.  Decided entirely
    at the mask level — no simplex is ever materialized.
    """
    if complex_.is_empty() or not complex_.is_pure():
        return False
    if complex_.dim == 0:
        return complex_.facet_count == 1 or not require_connected
    _, masks = complex_._ensure_index()
    ridges = ridge_table(masks)
    if any(len(positions) > 2 for positions in ridges.values()):
        return False
    if not require_connected:
        return True
    adjacency = facet_adjacency(masks, ridges)
    return component_count(adjacency) == 1


def boundary_complex(complex_: SimplicialComplex) -> SimplicialComplex:
    """The boundary: ridges contained in exactly one facet."""
    table, masks = complex_._ensure_index()
    border = [
        ridge
        for ridge, positions in ridge_table(masks).items()
        if len(positions) == 1
    ]
    if not border:
        return SimplicialComplex.empty()
    # Ridges of different-dimensional facets can nest (an impure complex
    # may put a boundary vertex under a boundary edge), so the family
    # still needs the maximality prune before the trusted constructor.
    return SimplicialComplex._from_masks(table, _prune_masks(border))
