"""Connectivity of chromatic complexes.

The consensus impossibility proof (Corollary 1) walks a *path* of edges in
the one-round protocol complex ``P^(1)(τ)`` and uses the fact that a
simplicial map sends connected complexes to connected complexes.  This module
provides the 1-skeleton graph of a complex, connected components, and
shortest paths.

Everything runs mask-native on the complex's ``(table, facet masks)``
index through the batch kernels of :mod:`repro.topology.kernels`:
adjacency is a ``list[int]`` of per-bit neighbor masks, components come
from a union-find over table bits, and shortest paths are a BFS whose
frontiers are masks.  ``Vertex`` objects only appear at the API
boundary, and every result is ordered by table index — the table lists
the vertices in canonical sort order, so outputs are deterministic by
construction rather than by re-sorting set-iteration output.
"""

from __future__ import annotations

from typing import Optional

from repro.topology.complex import SimplicialComplex
from repro.topology.kernels import (
    bfs_parents,
    mask_components,
    vertex_adjacency,
)
from repro.topology.table import iter_bits
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
    dimension ≥ 1).  Keys appear in canonical vertex order (the table's
    index order); isolated vertices map to an empty set.
    """
    table, masks = complex_._ensure_index()
    adjacency = vertex_adjacency(masks, len(table))
    vertex_at = table.vertex_at
    return {
        vertex_at(index): {
            vertex_at(neighbor) for neighbor in iter_bits(neighbors)
        }
        for index, neighbors in enumerate(adjacency)
    }


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
    smaller table indices (= smaller vertices), deterministically.
    """
    table, masks = complex_._ensure_index()
    try:
        start_index = table.index_of(start)
        goal_index = table.index_of(goal)
    except KeyError:
        # Either endpoint is not a vertex of the complex at all.
        return None
    if start_index == goal_index:
        return [start]
    adjacency = vertex_adjacency(masks, len(table))
    parents = bfs_parents(adjacency, start_index, goal=goal_index)
    if parents[goal_index] < 0:
        return None
    indices = [goal_index]
    while indices[-1] != start_index:
        indices.append(parents[indices[-1]])
    indices.reverse()
    return [table.vertex_at(index) for index in indices]
