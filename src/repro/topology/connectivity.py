"""Connectivity of chromatic complexes.

The consensus impossibility proof (Corollary 1) walks a *path* of edges in
the one-round protocol complex ``P^(1)(τ)`` and uses the fact that a
simplicial map sends connected complexes to connected complexes.  This module
provides the connected components of a complex's 1-skeleton.

Components come from :func:`~repro.topology.table.mask_components` on
the complex's ``(table, facet masks)`` index, the union-find the solver
also uses.  Every result is ordered by the canonical vertex order
(``sorted_vertices()``), so outputs are deterministic by construction.

:func:`farthest_facet` is the solver's core choice.  It runs on the
``(table, facet masks)`` indexes of an input and an output complex:
each output vertex's neighbours are one int, and each BFS frontier is
one mask.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.table import iter_bits, mask_components, popcount
from repro.topology.vertex import Vertex

__all__ = [
    "connected_components",
    "is_connected",
    "farthest_facet",
]


def connected_components(
    complex_: SimplicialComplex,
) -> list[frozenset[Vertex]]:
    """The connected components of the 1-skeleton, as vertex sets.

    Components are returned in deterministic order (by their smallest
    vertex — the lowest set bit of the component mask on the canonical
    table).
    """
    table, masks = complex_._ensure_index()
    vertex_at = table.vertex_at
    return [
        frozenset(vertex_at(index) for index in iter_bits(component))
        for component in mask_components(masks, len(table))
    ]


def is_connected(complex_: SimplicialComplex) -> bool:
    """``True`` iff the complex is non-empty and path-connected."""
    if complex_.is_empty():
        return False
    table, masks = complex_._ensure_index()
    return len(mask_components(masks, len(table))) == 1


def farthest_facet(
    inputs: SimplicialComplex,
    output: SimplicialComplex,
    solo: Callable[[Vertex], Iterable[Vertex]],
) -> Simplex:
    """The facet of ``inputs`` whose vertices' solo outputs lie farthest apart.

    ``solo(v)`` lists the output vertices ``v`` may decide alone
    (``Δ({v})``).  Distances are measured in the 1-skeleton of
    ``output``'s top-dimensional facets, and solo sets are restricted to
    the vertices of those facets.  A facet scores the largest distance
    between two of its vertices' solo sets; unreachable is infinite and
    ranks first.  Ties break toward the smaller ``Simplex._sort_key``,
    so the choice does not depend on the hash seed.  ``inputs`` must be
    non-empty.

    Each pair of input vertices that share a facet is measured once: one
    BFS per input vertex that is the lower end of such a pair, stopped
    as soon as every partner's solo set is reached.
    """
    table, facets = inputs._ensure_index()
    # Per input vertex, the higher bits it shares a facet with.
    partners = [0] * len(table)
    for mask in facets:
        rest = mask & (mask - 1)
        index = (mask & -mask).bit_length() - 1
        while rest:
            partners[index] |= rest
            low = rest & -rest
            index = low.bit_length() - 1
            rest ^= low

    out_table, out_masks = output._ensure_index()
    top = max(map(popcount, out_masks), default=0)
    # One int per output vertex: every vertex sharing a top facet with it.
    adjacency = [0] * len(out_table)
    on_top = 0
    for mask in out_masks:
        if popcount(mask) == top:
            on_top |= mask
            rest = mask
            while rest:
                low = rest & -rest
                adjacency[low.bit_length() - 1] |= mask
                rest ^= low

    # Solo sets as output masks, and per output vertex the input
    # vertices whose solo set holds it.
    involved = 0
    for index, wanted in enumerate(partners):
        if wanted:
            involved |= wanted | (1 << index)
    solo_masks = [0] * len(table)
    owners = [0] * len(out_table)
    in_output = output.vertices
    for index in iter_bits(involved):
        found = 0
        for vertex in solo(table.vertex_at(index)):
            if vertex in in_output:
                found |= 1 << out_table.index_of(vertex)
        found &= on_top
        solo_masks[index] = found
        for bit in iter_bits(found):
            owners[bit] |= 1 << index

    # The largest pair distance, and per source the partners at it.
    farthest: float = -1
    widest: list[tuple[int, int]] = []
    for index, wanted in enumerate(partners):
        if not wanted:
            continue
        frontier = seen = solo_masks[index]
        depth = last = 0
        distance: float = 0
        while frontier and wanted:
            reached = expanded = 0
            rest = frontier
            while rest:
                low = rest & -rest
                bit = low.bit_length() - 1
                reached |= owners[bit]
                expanded |= adjacency[bit]
                rest ^= low
            hit = wanted & reached
            if hit:
                wanted ^= hit
                distance, last = depth, hit
            frontier = expanded & ~seen
            seen |= frontier
            depth += 1
        if wanted:
            distance, last = math.inf, wanted
        if distance > farthest:
            farthest, widest = distance, [(index, last)]
        elif distance == farthest:
            widest.append((index, last))

    candidates: Iterable[int] = facets
    if farthest > 0:
        # Only the facets holding a pair at the largest distance tie;
        # when it is 0 (or no facet has a pair) every facet does.
        candidates = [
            mask
            for index, far in widest
            for mask in facets
            if mask >> index & 1 and mask & far
        ]
    decode = table.decode_mask_trusted
    return min(map(decode, candidates), key=Simplex._sort_key)
