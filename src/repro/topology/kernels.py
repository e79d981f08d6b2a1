"""Batch bitwise kernels over packed facet-mask arrays.

The bitmask core (:mod:`repro.topology.table`,
:mod:`repro.topology.complex`) made *single* simplex operations integer
ops; this module adds the *sweep* layer: kernels that take a packed
array of facet masks (a ``list[int]`` / ``Sequence[int]`` over one
:class:`~repro.topology.table.VertexTable`) and process the whole batch
in tight loops of shifts, ANDs, and popcounts — no ``Simplex`` or
``Vertex`` objects anywhere inside.  Connectivity, structural
invariants, and the solver's consistency probes are all expressible as
compositions of these kernels, which is what makes them "fast by
construction" (ROADMAP item 1's remaining headroom).

Conventions shared by every kernel:

* a *mask array* is a sequence of facet masks over one table; kernels
  never mix arrays from different tables (callers re-encode through
  one merged table first, as ``SimplicialComplex.union`` does);
* *vertex graphs* are ``list[int]`` adjacency masks indexed by table
  bit: ``adjacency[i]`` has bit ``j`` set iff vertices ``i`` and ``j``
  share a simplex.  *Facet graphs* use the same shape indexed by
  position in the mask array;
* all outputs are deterministic functions of the input order: loops run
  over sequences and bit scans ascend from the low bit, so no set
  iteration order ever leaks into a result;
* each kernel records one build on a process-wide cache counter of
  :func:`repro.telemetry.default_registry`, so cache reports and span
  metrics show sweep counts next to the cache hit rates.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.telemetry import default_registry
from repro.topology.table import popcount

__all__ = [
    "ridge_table",
    "vertex_adjacency",
    "facet_adjacency",
    "component_labels",
    "component_count",
    "mask_components",
    "bfs_parents",
]

_RIDGE_TABLES = default_registry().cache("kernels.ridge-tables")
_ADJACENCY_BUILDS = default_registry().cache("kernels.adjacency-builds")
_COMPONENT_SWEEPS = default_registry().cache("kernels.component-sweeps")
_BFS_SWEEPS = default_registry().cache("kernels.bfs-sweeps")


# ----------------------------------------------------------------------
# Ridges and adjacency
# ----------------------------------------------------------------------
def ridge_table(masks: Sequence[int]) -> dict[int, list[int]]:
    """Map each ridge mask to the positions of the facets containing it.

    Positions index into ``masks``.  Insertion order (and the order of
    each position list) is fixed by the input order and the ascending
    bit scan, so iteration over the table is deterministic.
    """
    _RIDGE_TABLES.built()
    table: dict[int, list[int]] = {}
    for position, mask in enumerate(masks):
        if popcount(mask) < 2:
            continue
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            ridge = mask ^ low
            found = table.get(ridge)
            if found is None:
                table[ridge] = [position]
            else:
                found.append(position)
    return table


def vertex_adjacency(masks: Sequence[int], size: int) -> list[int]:
    """1-skeleton adjacency masks over ``size`` table bits.

    ``adjacency[i]`` has bit ``j`` set iff some mask contains both bits
    — i.e. the vertices share a simplex of dimension ≥ 1.  Single-bit
    masks contribute nothing (a vertex is not adjacent to itself).
    """
    _ADJACENCY_BUILDS.built()
    adjacency = [0] * size
    for mask in masks:
        if popcount(mask) < 2:
            continue
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            adjacency[low.bit_length() - 1] |= mask ^ low
    return adjacency


def facet_adjacency(
    masks: Sequence[int],
    ridges: Optional[dict[int, list[int]]] = None,
) -> list[int]:
    """Facet-graph adjacency masks: facets sharing a ridge are adjacent.

    ``adjacency[i]`` is a bitmask over *positions* in ``masks``.  An
    already-computed :func:`ridge_table` can be passed to avoid
    rebuilding it.
    """
    _ADJACENCY_BUILDS.built()
    if ridges is None:
        ridges = ridge_table(masks)
    adjacency = [0] * len(masks)
    for positions in ridges.values():
        if len(positions) < 2:
            continue
        group = 0
        for position in positions:
            group |= 1 << position
        for position in positions:
            adjacency[position] |= group & ~(1 << position)
    return adjacency


# ----------------------------------------------------------------------
# Union-find component labeling
# ----------------------------------------------------------------------
def component_labels(adjacency: Sequence[int]) -> list[int]:
    """Connected-component labels for a mask graph, by union-find.

    ``labels[i]`` is the smallest node index in ``i``'s component, so
    labels are canonical: equal graphs get equal label arrays no matter
    how the unions interleaved.
    """
    _COMPONENT_SWEEPS.built()
    parent = list(range(len(adjacency)))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for node, neighbors in enumerate(adjacency):
        remaining = neighbors
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            left, right = find(node), find(low.bit_length() - 1)
            if left != right:
                # Union by smaller index keeps roots canonical as we go.
                if left < right:
                    parent[right] = left
                else:
                    parent[left] = right
    return [find(node) for node in range(len(adjacency))]


def component_count(adjacency: Sequence[int]) -> int:
    """The number of connected components of a mask graph."""
    labels = component_labels(adjacency)
    return sum(
        1 for node, label in enumerate(labels) if node == label
    )


def mask_components(masks: Sequence[int], size: int) -> list[int]:
    """Vertex-component masks of a facet family, smallest bit first.

    Unions the bits of every facet mask (a simplex connects all its
    vertices) and returns one mask per component, covering exactly the
    bits that appear in some facet.  Ordering by lowest set bit makes
    the result deterministic — on a canonical table, "lowest bit" is
    "smallest vertex".
    """
    _COMPONENT_SWEEPS.built()
    parent = list(range(size))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    used = 0
    for mask in masks:
        used |= mask
        remaining = mask & (mask - 1)  # all but the low bit
        if not remaining:
            continue
        anchor = find((mask & -mask).bit_length() - 1)
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            root = find(low.bit_length() - 1)
            if root != anchor:
                if root < anchor:
                    parent[anchor] = root
                    anchor = root
                else:
                    parent[root] = anchor
    components: dict[int, int] = {}
    bit = 0
    scan = used
    while scan:
        if scan & 1:
            root = find(bit)
            components[root] = components.get(root, 0) | (1 << bit)
        scan >>= 1
        bit += 1
    # Roots are the smallest bit of their component, so sorting by root
    # index is sorting by lowest set bit.
    return [components[root] for root in sorted(components)]


# ----------------------------------------------------------------------
# Mask-graph BFS
# ----------------------------------------------------------------------
def bfs_parents(
    adjacency: Sequence[int], start: int, goal: Optional[int] = None
) -> list[int]:
    """BFS parent indices over a mask graph, from ``start``.

    ``parents[i]`` is the predecessor of node ``i`` on a shortest path
    from ``start`` (``parents[start] == start``); unreached nodes hold
    ``-1``.  Frontiers are masks and each frontier is scanned in
    ascending bit order, so ties break deterministically toward smaller
    indices.  Passing ``goal`` stops the sweep as soon as that node is
    reached.
    """
    _BFS_SWEEPS.built()
    parents = [-1] * len(adjacency)
    parents[start] = start
    seen = 1 << start
    frontier = seen
    while frontier:
        next_frontier = 0
        remaining = frontier
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            node = low.bit_length() - 1
            fresh = adjacency[node] & ~seen
            seen |= fresh
            next_frontier |= fresh
            while fresh:
                low_fresh = fresh & -fresh
                fresh ^= low_fresh
                parents[low_fresh.bit_length() - 1] = node
        if goal is not None and (seen >> goal) & 1:
            break
        frontier = next_frontier
    return parents
