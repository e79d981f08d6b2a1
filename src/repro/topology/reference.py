"""Object-set reference implementations of the complex operations.

These are the pre-bitmask algorithms of
:class:`~repro.topology.complex.SimplicialComplex`, retained verbatim in
spirit: every function works on plain ``Simplex``/``Vertex`` sets with
``frozenset`` subset tests and materialized face families, exactly as the
seed implementation did.  They exist for three reasons:

* audit rule AUD013 cross-checks the bitmask core against them on every
  live complex of an experiment's target group;
* the property tests in ``tests/topology/test_bitmask_core.py`` assert
  bitmask results equal reference results on randomized complexes;
* ``benchmarks/bench_bitmask_core.py`` uses them as the before-side of
  the facet-pruning and containment-test timings.

Functions take and return facet families (iterables / frozensets of
:class:`Simplex`), not complexes, so they cannot accidentally call back
into the bitmask core they are meant to check.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

__all__ = [
    "prune_reference",
    "faces_reference",
    "contains_reference",
    "proj_reference",
    "star_reference",
    "skeleton_reference",
    "union_reference",
    "intersection_reference",
    "f_vector_reference",
    "adjacency_reference",
    "components_reference",
    "shortest_path_reference",
    "ridge_incidence_reference",
    "is_pseudomanifold_reference",
    "boundary_reference",
]


def prune_reference(
    simplices: Iterable[Simplex],
) -> frozenset[Simplex]:
    """The inclusion-maximal entries of a family (seed pruning pass).

    Candidates are visited by decreasing dimension; subset tests run on
    vertex frozensets, confined to accepted facets sharing the
    candidate's rarest vertex — the exact seed ``__init__`` algorithm.
    """
    candidates = set(simplices)
    facets: list[Simplex] = []
    by_vertex: dict[Vertex, list[frozenset[Vertex]]] = {}
    for simplex in sorted(candidates, key=len, reverse=True):
        vertices = simplex.vertices
        buckets = []
        for vertex in vertices:
            bucket = by_vertex.get(vertex)
            if bucket is None:
                buckets = None
                break
            buckets.append(bucket)
        vertex_set = frozenset(vertices)
        if buckets is not None and any(
            vertex_set <= accepted
            for accepted in min(buckets, key=len)
        ):
            continue
        facets.append(simplex)
        for vertex in vertices:
            by_vertex.setdefault(vertex, []).append(vertex_set)
    return frozenset(facets)


def faces_reference(facets: Iterable[Simplex]) -> frozenset[Simplex]:
    """Every face of every facet, eagerly materialized (seed path)."""
    faces: set[Simplex] = set()
    for facet in facets:
        faces.update(facet.faces())
    return frozenset(faces)


def contains_reference(
    facets: Iterable[Simplex], candidate: Simplex
) -> bool:
    """Membership by full face-set materialization (seed ``__contains__``)."""
    return candidate in faces_reference(facets)


def proj_reference(
    facets: Iterable[Simplex], colors: Iterable[int]
) -> frozenset[Simplex]:
    """Facets of the projection onto a color set (seed ``proj``)."""
    keep = frozenset(colors)
    projected = []
    for facet in facets:
        shared = facet.ids & keep
        if shared:
            projected.append(facet.proj(shared))
    return prune_reference(projected)


def star_reference(
    facets: Iterable[Simplex], vertex: Vertex
) -> frozenset[Simplex]:
    """Facets of the star of a vertex (seed ``star``)."""
    return frozenset(f for f in facets if vertex in f)


def skeleton_reference(
    facets: Iterable[Simplex], k: int
) -> frozenset[Simplex]:
    """Facets of the ``k``-skeleton (seed ``skeleton``)."""
    if k < 0:
        return frozenset()
    pieces: list[Simplex] = []
    for facet in facets:
        if facet.dim <= k:
            pieces.append(facet)
        else:
            pieces.extend(
                Simplex(subset)
                for subset in combinations(facet.vertices, k + 1)
            )
    return prune_reference(pieces)


def union_reference(
    left: Iterable[Simplex], right: Iterable[Simplex]
) -> frozenset[Simplex]:
    """Facets of the union of two facet families (seed ``union``)."""
    return prune_reference(list(left) + list(right))


def intersection_reference(
    left: Iterable[Simplex], right: Iterable[Simplex]
) -> frozenset[Simplex]:
    """Facets of the intersection (seed ``intersection``).

    Materializes both full face sets and prunes their overlap — the
    seed's exact (and exactly as expensive) strategy.
    """
    shared = faces_reference(left) & faces_reference(right)
    return prune_reference(shared)


def f_vector_reference(
    facets: Iterable[Simplex],
) -> tuple[int, ...]:
    """The f-vector from the materialized face set (seed ``f_vector``)."""
    faces = faces_reference(facets)
    if not faces:
        return ()
    counts: dict[int, int] = {}
    for simplex in faces:
        counts[simplex.dim] = counts.get(simplex.dim, 0) + 1
    top = max(counts)
    return tuple(counts.get(d, 0) for d in range(top + 1))


# ----------------------------------------------------------------------
# Connectivity and structure oracles (pre-kernel algorithms)
# ----------------------------------------------------------------------
def adjacency_reference(
    facets: Iterable[Simplex],
) -> dict[Vertex, set[Vertex]]:
    """1-skeleton adjacency by nested vertex loops (seed algorithm)."""
    adjacency: dict[Vertex, set[Vertex]] = {}
    for facet in facets:
        vertices = facet.vertices
        for vertex in vertices:
            adjacency.setdefault(vertex, set())
        for index, left in enumerate(vertices):
            for right in vertices[index + 1 :]:
                adjacency[left].add(right)
                adjacency[right].add(left)
    return adjacency


def components_reference(
    facets: Iterable[Simplex],
) -> list[frozenset[Vertex]]:
    """Connected components by object-set BFS, smallest vertex first."""
    adjacency = adjacency_reference(facets)
    remaining = set(adjacency)
    components: list[frozenset[Vertex]] = []
    while remaining:
        seed = min(remaining, key=lambda v: v._sort_key())
        seen = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        components.append(frozenset(seen))
        remaining -= seen
    components.sort(key=lambda comp: min(v._sort_key() for v in comp))
    return components


def shortest_path_reference(
    facets: Iterable[Simplex], start: Vertex, goal: Vertex
) -> "list[Vertex] | None":
    """A shortest vertex path by object-set BFS (seed algorithm)."""
    adjacency = adjacency_reference(facets)
    if start not in adjacency or goal not in adjacency:
        return None
    if start == goal:
        return [start]
    parents: dict[Vertex, Vertex] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        next_frontier: list[Vertex] = []
        for current in frontier:
            neighbors = sorted(
                adjacency[current], key=lambda v: v._sort_key()
            )
            for neighbor in neighbors:
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                parents[neighbor] = current
                if neighbor == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                next_frontier.append(neighbor)
        frontier = next_frontier
    return None


def ridge_incidence_reference(
    facets: Iterable[Simplex],
) -> dict[Simplex, list[Simplex]]:
    """Ridge → facets by materialized face enumeration (seed algorithm)."""
    incidence: dict[Simplex, list[Simplex]] = {}
    for facet in facets:
        if facet.dim < 1:
            continue
        for ridge in facet.faces(include_self=False):
            if ridge.dim == facet.dim - 1:
                incidence.setdefault(ridge, []).append(facet)
    return incidence


def is_pseudomanifold_reference(
    facets: Iterable[Simplex], require_connected: bool = True
) -> bool:
    """The pseudomanifold test over object sets (seed algorithm)."""
    pool = list(facets)
    if not pool:
        return False
    dims = {facet.dim for facet in pool}
    if len(dims) > 1:
        return False
    if dims == {0}:
        return len(pool) == 1 or not require_connected
    incidence = ridge_incidence_reference(pool)
    if any(len(found) > 2 for found in incidence.values()):
        return False
    if not require_connected:
        return True
    adjacency: dict[Simplex, set[Simplex]] = {
        facet: set() for facet in pool
    }
    for found in incidence.values():
        if len(found) == 2:
            left, right = found
            adjacency[left].add(right)
            adjacency[right].add(left)
    seen = {pool[0]}
    frontier = [pool[0]]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(pool)


def boundary_reference(
    facets: Iterable[Simplex],
) -> frozenset[Simplex]:
    """Facets of the boundary complex (ridges in exactly one facet)."""
    incidence = ridge_incidence_reference(facets)
    return prune_reference(
        ridge for ridge, found in incidence.items() if len(found) == 1
    )
