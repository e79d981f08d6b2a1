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

All three are plain object-set algorithms over the facets in canonical
order (``sorted_facets()``), so every result is deterministic.
"""

from __future__ import annotations

from repro.topology.complex import SimplicialComplex
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
    out in canonical facet order.
    """
    incidence: dict[Simplex, list[Simplex]] = {}
    for facet in complex_.sorted_facets():
        if facet.dim < 1:
            continue
        for dropped in facet.vertices:
            ridge = Simplex(v for v in facet.vertices if v != dropped)
            incidence.setdefault(ridge, []).append(facet)
    return incidence


def is_pseudomanifold(
    complex_: SimplicialComplex, require_connected: bool = True
) -> bool:
    """Whether the complex is a pseudomanifold (possibly with boundary).

    Checks purity, the two-facets-per-ridge condition, and (by default)
    strong connectivity of the facet-adjacency graph.
    """
    if complex_.is_empty() or not complex_.is_pure():
        return False
    if complex_.dim == 0:
        return complex_.facet_count == 1 or not require_connected
    incidence = ridge_incidence(complex_)
    if any(len(found) > 2 for found in incidence.values()):
        return False
    if not require_connected:
        return True
    neighbors: dict[Simplex, list[Simplex]] = {}
    for found in incidence.values():
        if len(found) == 2:
            left, right = found
            neighbors.setdefault(left, []).append(right)
            neighbors.setdefault(right, []).append(left)
    start = next(iter(complex_.facets))
    seen = {start}
    frontier = [start]
    while frontier:
        for neighbor in neighbors.get(frontier.pop(), ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == complex_.facet_count


def boundary_complex(complex_: SimplicialComplex) -> SimplicialComplex:
    """The boundary: ridges contained in exactly one facet."""
    # Ridges of different-dimensional facets can nest (an impure complex
    # may put a boundary vertex under a boundary edge), so the family
    # goes through the pruning constructor.
    return SimplicialComplex(
        ridge
        for ridge, found in ridge_incidence(complex_).items()
        if len(found) == 1
    )
