"""Chromatic simplices.

A simplex of a chromatic complex is a non-empty set of vertices carrying
pairwise distinct colors (Appendix A.1).  :class:`Simplex` is immutable and
hashable; its vertices are stored sorted by color, so iteration and ``repr``
are deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Iterator, Mapping, Union

from repro.errors import ChromaticityError
from repro.topology.vertex import Vertex

__all__ = ["Simplex"]

VertexLike = Union[Vertex, tuple[int, Hashable]]


def _as_vertex(entry: VertexLike) -> Vertex:
    if isinstance(entry, Vertex):
        return entry
    color, value = entry
    return Vertex(color, value)


class Simplex:
    """An immutable chromatic simplex.

    Parameters
    ----------
    vertices:
        A non-empty iterable of :class:`Vertex` (or ``(color, value)``
        pairs).  Colors must be pairwise distinct.

    Notes
    -----
    The *dimension* of a simplex is ``len(simplex) - 1``; a single vertex is
    a 0-dimensional simplex.  Faces of a simplex are its non-empty subsets.
    """

    __slots__ = ("_vertices", "_hash", "_skey")

    def __init__(self, vertices: Iterable[VertexLike]):
        resolved = [_as_vertex(entry) for entry in vertices]
        if not resolved:
            raise ChromaticityError("a simplex must contain at least one vertex")
        # The color map is a construction-time scratch value only: storing
        # it alongside the sorted tuple doubled the per-simplex footprint
        # at 13^t facet counts, and every color lookup on a ≤n-vertex
        # simplex is at least as fast as a linear scan of the tuple.
        by_color: dict[int, Vertex] = {}
        for vertex in resolved:
            if vertex.color in by_color:
                if by_color[vertex.color] != vertex:
                    raise ChromaticityError(
                        f"two distinct vertices with color {vertex.color} in "
                        f"the same simplex: {by_color[vertex.color]!r} and "
                        f"{vertex!r}"
                    )
            else:
                by_color[vertex.color] = vertex
        ordered = tuple(sorted(by_color.values(), key=lambda v: v.color))
        self._vertices = ordered
        self._hash = hash(ordered)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Hashable]) -> "Simplex":
        """Build a simplex from a ``{color: value}`` mapping."""
        return cls(Vertex(color, value) for color, value in mapping.items())

    @classmethod
    def single(cls, color: int, value: Hashable) -> "Simplex":
        """Build the 0-dimensional simplex ``{(color, value)}``."""
        return cls([Vertex(color, value)])

    @classmethod
    def _from_color_sorted(
        cls, ordered: tuple[Vertex, ...]
    ) -> "Simplex":
        """Trusted fast path: wrap a color-sorted chromatic vertex tuple.

        Skips the chromaticity pass of ``__init__``.  The caller promises
        the tuple is non-empty, sorted by color, and free of repeated
        colors — the bitmask core's lazy materialization produces exactly
        those (set bits of a canonical vertex table enumerate vertices in
        color order).
        """
        self = object.__new__(cls)
        self._vertices = ordered
        self._hash = hash(ordered)
        return self

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices of the simplex, sorted by color."""
        return self._vertices

    @property
    def ids(self) -> frozenset:
        """The set ``ID(σ)`` of colors appearing in the simplex."""
        return frozenset(v.color for v in self._vertices)

    @property
    def dim(self) -> int:
        """The dimension ``|σ| - 1``."""
        return len(self._vertices) - 1

    def value_of(self, color: int) -> Hashable:
        """Return the value carried by the vertex of the given color."""
        return self.vertex_of(color).value

    def vertex_of(self, color: int) -> Vertex:
        """Return the vertex of the given color."""
        for vertex in self._vertices:
            if vertex.color == color:
                return vertex
        raise KeyError(color)

    def as_mapping(self) -> dict[int, Hashable]:
        """Return the simplex as a ``{color: value}`` dictionary."""
        return {v.color: v.value for v in self._vertices}

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __contains__(self, vertex: object) -> bool:
        if not isinstance(vertex, Vertex):
            return False
        for candidate in self._vertices:
            if candidate.color == vertex.color:
                return candidate == vertex
        return False

    # ------------------------------------------------------------------
    # Faces and projections
    # ------------------------------------------------------------------
    def faces(self, include_self: bool = True) -> Iterator["Simplex"]:
        """Yield every non-empty face of the simplex.

        Faces are yielded by decreasing dimension; the simplex itself comes
        first unless ``include_self`` is false.
        """
        top = len(self._vertices)
        start = top if include_self else top - 1
        for size in range(start, 0, -1):
            for subset in combinations(self._vertices, size):
                yield Simplex(subset)

    def proper_faces(self) -> Iterator["Simplex"]:
        """Yield every face of dimension strictly less than ``self.dim``."""
        return self.faces(include_self=False)

    def proj(self, colors: Iterable[int]) -> "Simplex":
        """The projection ``proj_J(σ)`` onto the given non-empty color set.

        Raises
        ------
        ChromaticityError
            If some requested color does not appear in the simplex, or the
            requested set is empty.
        """
        keep = frozenset(colors)
        if not keep:
            raise ChromaticityError("cannot project a simplex on zero colors")
        missing = keep - self.ids
        if missing:
            raise ChromaticityError(
                f"projection colors {sorted(missing)} absent from simplex "
                f"with colors {sorted(self.ids)}"
            )
        return Simplex(v for v in self._vertices if v.color in keep)

    def is_face_of(self, other: "Simplex") -> bool:
        """``True`` iff every vertex of this simplex belongs to ``other``."""
        return all(vertex in other for vertex in self._vertices)

    # ------------------------------------------------------------------
    # Value-object plumbing
    # ------------------------------------------------------------------
    def _sort_key(self) -> tuple:
        # Cached lazily; the slot stays unset until first use so forged
        # test objects built via ``object.__new__`` keep working.
        try:
            return self._skey
        except AttributeError:
            key = tuple(v._sort_key() for v in self._vertices)
            self._skey = key
            return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Simplex):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"({v.color}, {v.value!r})" for v in self._vertices)
        return f"Simplex[{body}]"
