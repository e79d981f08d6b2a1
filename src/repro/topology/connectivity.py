"""Connectivity of chromatic complexes.

The consensus impossibility proof (Corollary 1) walks a *path* of edges in
the one-round protocol complex ``P^(1)(τ)`` and uses the fact that a
simplicial map sends connected complexes to connected complexes.  This module
provides the 1-skeleton graph of a complex, connected components, and
shortest paths.

Adjacency and shortest paths are plain object-set algorithms over the
facets.  Components come from :func:`~repro.topology.table.mask_components`
on the complex's ``(table, facet masks)`` index, the union-find the solver
also uses.  Every result is ordered by the canonical vertex order
(``sorted_vertices()``), so outputs are deterministic by construction.
"""

from __future__ import annotations

from typing import Optional

from repro.topology.complex import SimplicialComplex
from repro.topology.table import iter_bits, mask_components
from repro.topology.vertex import Vertex

__all__ = [
    "one_skeleton_adjacency",
    "connected_components",
    "is_connected",
    "shortest_path",
]


def one_skeleton_adjacency(
    complex_: SimplicialComplex,
) -> dict[Vertex, set[Vertex]]:
    """The adjacency structure of the complex's 1-skeleton.

    Two vertices are adjacent iff they belong to a common simplex (of any
    dimension ≥ 1).  Keys appear in canonical vertex order
    (``sorted_vertices()``); isolated vertices map to an empty set.
    """
    adjacency: dict[Vertex, set[Vertex]] = {
        vertex: set() for vertex in complex_.sorted_vertices()
    }
    for facet in complex_.facets:
        for vertex in facet.vertices:
            adjacency[vertex].update(facet.vertices)
            adjacency[vertex].discard(vertex)
    return adjacency


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


def shortest_path(
    complex_: SimplicialComplex, start: Vertex, goal: Vertex
) -> Optional[list[Vertex]]:
    """A shortest vertex path between two vertices, or ``None``.

    The path includes both endpoints; a vertex connected to itself yields the
    singleton path.  Ties between equally short paths break toward
    smaller vertices: each BFS level is expanded in canonical vertex
    order, and a vertex's parent is the first vertex of the previous
    level that reaches it.
    """
    adjacency = one_skeleton_adjacency(complex_)
    if start not in adjacency or goal not in adjacency:
        return None
    if start == goal:
        return [start]
    rank = {vertex: index for index, vertex in enumerate(adjacency)}
    parents = {start: start}
    frontier = [start]
    while frontier and goal not in parents:
        reached: list[Vertex] = []
        for current in sorted(frontier, key=rank.__getitem__):
            for neighbor in adjacency[current]:
                if neighbor not in parents:
                    parents[neighbor] = current
                    reached.append(neighbor)
        frontier = reached
    if goal not in parents:
        return None
    path = [goal]
    while path[-1] != start:
        path.append(parents[path[-1]])
    path.reverse()
    return path
