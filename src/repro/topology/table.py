"""Interned vertex tables and bitmask primitives.

The bitmask-native core represents a simplex as an integer mask over a
:class:`VertexTable`: bit ``i`` set means "contains the table's ``i``-th
vertex".  Subset tests become ``sub & sup == sub``, face enumeration
becomes submask enumeration, and inclusion-maximality pruning becomes a
sweep of integer comparisons.  :class:`~repro.topology.complex.SimplicialComplex`
keeps one table per complex.

Tables are immutable and interned (:meth:`VertexTable.interned_of`),
always listing their vertices in canonical ``_sort_key`` order: they are
shared process-wide through a weak registry keyed by their interned
vertex tuple, so equal complexes built at different times index against
the *same* table object — which makes table identity a valid fast path
for complex equality.

Masks never leave :mod:`repro.topology`: code outside the package asks a
:class:`~repro.topology.complex.SimplicialComplex` for its masks and
decodes them through the same complex, so a mask is only ever combined
with masks of the table it came from.

:meth:`VertexTable.encode_mask` is *strict*: encoding a vertex the table
does not hold raises :class:`~repro.errors.ChromaticityError`.

:func:`mask_components` is the one sweep over a whole mask family: a
union-find over bits that yields connected components.  Both
:func:`~repro.topology.connectivity.connected_components` and the
solver's component split run on it.
"""

from __future__ import annotations

import weakref
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ChromaticityError
from repro.telemetry import default_registry
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

__all__ = [
    "VertexTable",
    "popcount",
    "iter_bits",
    "iter_submasks",
    "mask_components",
]

#: The performance ledger reads this counter by name.
_COMPONENT_SWEEPS = default_registry().cache("kernels.component-sweeps")


def _portable_popcount(value: int) -> int:
    return bin(value).count("1")


#: Number of set bits of a mask (``int.bit_count`` needs Python ≥ 3.10;
#: the string fallback keeps 3.9 working).
popcount: Callable[[int], int] = getattr(
    int, "bit_count", _portable_popcount
)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every non-zero submask of ``mask`` (faces of a facet).

    Order is descending, starting at ``mask`` itself; the classic
    ``sub = (sub - 1) & mask`` walk visits each of the ``2^k - 1``
    non-empty subsets exactly once.
    """
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


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


#: Process-wide weak registry of interned tables, keyed by the tuple of
#: interned vertices.  Vertices are interned, so the key hashes cached
#: vertex hashes and compares on identity, never re-hashing a payload.
#: Values are weak so that sweeps over many distinct complexes (the
#: ``13^t`` blow-up) do not pin dead tables in memory: a table lives
#: exactly as long as some complex (or memo layer) references it.
_INTERNED: "weakref.WeakValueDictionary[tuple, VertexTable]" = (
    weakref.WeakValueDictionary()
)

_TABLE_IDS = count()


class VertexTable:
    """An interned table of ``(color, value)`` pairs with stable indices.

    The table assigns each distinct vertex a small integer index; simplex
    bitmasks are built over those indices.  A mask means something only
    to the table it was encoded against: decode it with the same table.

    Every table carries a process-unique ``table_id`` (never reused), so
    ``(table_id, mask)`` int pairs are unambiguous memo keys across any
    number of tables.
    """

    __slots__ = (
        "_index",
        "_vertices",
        "_table_id",
        "__weakref__",
    )

    def __init__(self, vertices: Sequence[Vertex]) -> None:
        # Callers go through interned_of(), which shares tables.
        self._vertices = tuple(dict.fromkeys(vertices))
        self._index = {vertex: i for i, vertex in enumerate(self._vertices)}
        self._table_id = next(_TABLE_IDS)

    @classmethod
    def interned_of(cls, vertices: Sequence[Vertex]) -> "VertexTable":
        """The interned table listing ``vertices`` in the given order.

        Tables are shared through a weak registry: two calls with equal
        vertices return the same object for as long as anything holds
        it.  The caller promises the sequence is already in canonical
        ``_sort_key`` order (every caller sorts before calling); it is
        not re-checked.
        """
        key = tuple(vertices)
        found = _INTERNED.get(key)
        if found is None:
            found = _INTERNED[key] = cls(key)
        return found

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def index_of(self, vertex: Vertex) -> int:
        """The index of an interned vertex (:class:`KeyError` if absent)."""
        return self._index[vertex]

    def vertex_at(self, index: int) -> Vertex:
        """The vertex interned at ``index``."""
        return self._vertices[index]

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The interned vertices, in index order."""
        return self._vertices

    @property
    def table_id(self) -> int:
        """A process-unique id (monotone, never reused) for memo keys."""
        return self._table_id

    @property
    def full_mask(self) -> int:
        """The mask with every table bit set."""
        return (1 << len(self._vertices)) - 1

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        return (
            f"VertexTable(id={self._table_id}, entries={len(self._vertices)})"
        )

    def __reduce__(self) -> tuple:
        # Table ids are process-local and are not pickled: tables
        # re-intern on the receiving side, joining its weak registry.
        return (VertexTable.interned_of, (self._vertices,))

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------
    def encode_mask(self, simplex: Simplex) -> int:
        """The bitmask of a simplex over this table — *strict*.

        Raises
        ------
        ChromaticityError
            If some vertex of the simplex is not interned here.
        """
        index = self._index
        mask = 0
        vertex = None
        try:
            for vertex in simplex.vertices:
                mask |= 1 << index[vertex]
        except KeyError:
            raise ChromaticityError(
                f"vertex {vertex!r} is not interned in this table"
            ) from None
        return mask

    def colors_mask(self, colors: Iterable[int]) -> int:
        """The mask of every table vertex whose color is in ``colors``."""
        keep = set(colors)
        mask = 0
        for index, vertex in enumerate(self._vertices):
            if vertex.color in keep:
                mask |= 1 << index
        return mask

    def decode_mask_trusted(self, mask: int) -> Simplex:
        """Rebuild a simplex from a mask known to be in range.

        Masks of a sorted table list vertices in color order whenever
        the simplex is chromatic, so the :class:`Simplex` can be built
        through the trusted color-sorted path without re-validating.
        Non-chromatic bit sets (forged facets) fall back to the checking
        constructor, which raises exactly as eager materialization did.
        """
        vertices = []
        m = mask
        while m:
            low = m & -m
            vertices.append(self._vertices[low.bit_length() - 1])
            m ^= low
        previous: int | None = None
        for vertex in vertices:
            if previous is not None and vertex.color <= previous:
                return Simplex(vertices)
            previous = vertex.color
        return Simplex._from_color_sorted(tuple(vertices))
