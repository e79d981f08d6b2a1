"""Interned vertex tables and bitmask primitives.

The bitmask-native core represents a simplex as an integer mask over a
:class:`VertexTable`: bit ``i`` set means "contains the table's ``i``-th
vertex".  Subset tests become ``sub & sup == sub``, face enumeration
becomes submask enumeration, and inclusion-maximality pruning becomes a
sweep of integer comparisons.  :class:`~repro.topology.complex.SimplicialComplex`
keeps one table per complex; the wire codec (:mod:`repro.topology.wire`)
ships the same table across process boundaries.

Tables are immutable and interned (:meth:`VertexTable.interned` /
:meth:`VertexTable.interned_of`): they are shared process-wide through a
weak registry keyed by their pair tuple, so equal complexes built at
different times index against the *same* table object — which makes
table identity a valid fast path for complex equality and keeps
re-encoding to wire form a near-no-op.

Masks never leave :mod:`repro.topology`: code outside the package asks a
:class:`~repro.topology.complex.SimplicialComplex` for its masks and
decodes them through the same complex, so a mask is only ever combined
with masks of the table it came from.

:meth:`VertexTable.encode_mask` is *strict*: encoding a vertex the table
does not hold raises :class:`~repro.errors.ChromaticityError`.
"""

from __future__ import annotations

import weakref
from itertools import count
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro.errors import ChromaticityError
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

__all__ = ["VertexTable", "popcount", "iter_bits", "iter_submasks"]


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


#: Process-wide weak registry of interned tables, keyed by pair tuple.
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
    bitmasks are built over those indices.  Encoding and decoding sides
    must share the same pair tuple (the wire encoder embeds it in the
    record).

    Every table carries a process-unique ``table_id`` (never reused), so
    ``(table_id, mask)`` int pairs are unambiguous memo keys across any
    number of tables.
    """

    __slots__ = (
        "_pairs",
        "_index",
        "_vertices",
        "_sorted",
        "_table_id",
        "__weakref__",
    )

    def __init__(self, pairs: Iterable[tuple[int, Hashable]]) -> None:
        # Callers go through interned()/interned_of(), which share tables.
        self._index: dict[Vertex, int] = {}
        self._vertices: list[Vertex] = []
        for color, value in pairs:
            vertex = Vertex(color, value)
            if vertex not in self._index:
                self._index[vertex] = len(self._vertices)
                self._vertices.append(vertex)
        self._pairs = [vertex.as_pair() for vertex in self._vertices]
        self._sorted: bool | None = None
        self._table_id = next(_TABLE_IDS)

    # ------------------------------------------------------------------
    # Interned constructors
    # ------------------------------------------------------------------
    @classmethod
    def interned(
        cls, pairs: Iterable[tuple[int, Hashable]]
    ) -> "VertexTable":
        """The process-wide frozen table for the given pair tuple.

        Tables are shared through a weak registry: two calls with equal
        pairs return the same object for as long as anything holds it.
        """
        key = tuple(pairs)
        found = _INTERNED.get(key)
        if found is None:
            found = _INTERNED[key] = cls(key)
        return found

    @classmethod
    def interned_of(cls, vertices: Sequence[Vertex]) -> "VertexTable":
        """The interned table listing ``vertices`` in the given order.

        The caller promises the sequence is already in canonical
        ``_sort_key`` order (the complex index builder sorts before
        calling); the table is marked sorted without re-checking.
        """
        key = tuple(v.as_pair() for v in vertices)
        found = _INTERNED.get(key)
        if found is None:
            found = cls.__new__(cls)
            found._seed_sorted(vertices, key)
            _INTERNED[key] = found
        return found

    def _seed_sorted(
        self,
        vertices: Sequence[Vertex],
        pairs: tuple[tuple[int, Hashable], ...],
    ) -> None:
        """Initialize a table from pre-sorted vertices (no re-intern)."""
        self._pairs = list(pairs)
        self._vertices = list(vertices)
        self._index = {v: i for i, v in enumerate(vertices)}
        self._sorted = True
        self._table_id = next(_TABLE_IDS)

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
    def pairs(self) -> tuple[tuple[int, Hashable], ...]:
        """The interned ``(color, value)`` pairs, in index order."""
        return tuple(self._pairs)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The interned vertices, in index order."""
        return tuple(self._vertices)

    @property
    def table_id(self) -> int:
        """A process-unique id (monotone, never reused) for memo keys."""
        return self._table_id

    @property
    def is_sorted(self) -> bool:
        """``True`` iff the entries are in canonical ``_sort_key`` order.

        Computed once and cached; sorted tables are what makes narrowing and wire encoding order-stable.
        """
        if self._sorted is None:
            keys = [v._sort_key() for v in self._vertices]
            self._sorted = all(a <= b for a, b in zip(keys, keys[1:]))
        return self._sorted

    @property
    def full_mask(self) -> int:
        """The mask with every table bit set."""
        return (1 << len(self._pairs)) - 1

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        return (
            f"VertexTable(id={self._table_id}, entries={len(self._pairs)})"
        )

    def __reduce__(self) -> tuple:
        # Table ids are process-local and never cross the wire: tables
        # re-intern on the receiving side, joining its weak registry.
        return (VertexTable.interned, (self.pairs,))

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

    def decode_mask(self, mask: int) -> Simplex:
        """Rebuild the simplex whose vertices are the set bits of ``mask``."""
        if mask <= 0:
            raise ChromaticityError(
                f"simplex bitmask must be positive, got {mask}"
            )
        vertices = []
        index = 0
        while mask:
            if mask & 1:
                if index >= len(self._vertices):
                    raise ChromaticityError(
                        f"bitmask bit {index} exceeds the vertex table "
                        f"({len(self._vertices)} entries)"
                    )
                vertices.append(self._vertices[index])
            mask >>= 1
            index += 1
        return Simplex(vertices)

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
