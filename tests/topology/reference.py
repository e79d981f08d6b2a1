"""Object-set reference implementations of the bitmask core's operations.

These are the pre-bitmask algorithms of
:class:`~repro.topology.complex.SimplicialComplex` for the operations
the hot paths use — pruning, containment, projection and the f-vector
— retained verbatim in spirit: every function works on plain
``Simplex``/``Vertex`` sets with ``frozenset`` subset tests and
materialized face families, exactly as the seed implementation did.
The property tests in ``tests/topology/test_bitmask_core.py`` assert
bitmask results equal reference results on randomized complexes and on
the one-round complexes of every model family.

:func:`one_skeleton_adjacency` is the object-set 1-skeleton that the
mask kernel :func:`~repro.topology.connectivity.farthest_facet` is
tested against.

Functions take and return facet families (iterables / frozensets of
:class:`Simplex`), not complexes, so they cannot accidentally call back
into the bitmask core they are meant to check; the 1-skeleton reads a
complex's facets only.
"""

from __future__ import annotations

from typing import Iterable

from repro.topology import Simplex, SimplicialComplex, Vertex


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
