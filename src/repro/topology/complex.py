"""Chromatic simplicial complexes — the bitmask-native core.

A complex is a non-empty-set family closed under taking non-empty subsets
(Appendix A.1).  :class:`SimplicialComplex` stores the family by its
*facets* (inclusion-maximal simplices) and indexes them as integer
bitmasks over an interned, canonically sorted
:class:`~repro.topology.table.VertexTable`: subset tests become
``sub & sup == sub``, inclusion-maximality pruning becomes a sweep of
integer comparisons, and projection is a bitwise pass over one ``int``
per facet.  This is what keeps the ``13^t``-facet protocol complexes of
the round-expansion blow-up tractable — the object-set reference
semantics (retained in ``tests/topology/reference.py`` and
cross-checked by its parity tests) are unchanged.

``Simplex`` objects are materialized lazily, only at API boundaries
(``facets``, ``simplices``, iteration, sorted accessors): a complex
built from masks (every mask-level operation returns one) answers
membership, projection, and equality queries without rebuilding a
single vertex object.

Two complexes compare equal iff they contain exactly the same simplices.
The class is immutable: every operation returns a new complex.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import ChromaticityError
from repro.telemetry import default_registry
from repro.topology.simplex import Simplex
from repro.topology.table import (
    VertexTable,
    iter_bits,
    popcount,
)
from repro.topology.vertex import Vertex

__all__ = ["SimplicialComplex"]

_PRUNED_BUILDS = default_registry().cache("simplicial-complex.pruned-builds")
_TRUSTED_BUILDS = default_registry().cache("simplicial-complex.trusted-builds")


def _prune_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks of a family (bitwise pruning pass).

    Masks are visited by decreasing popcount, so a non-maximal mask
    always comes after an already-accepted superset.  Accepting a mask
    marks all its submasks as covered, and a later mask is maximal iff
    it is not covered.  A chromatic simplex has at most ``n`` vertices,
    so each accepted facet costs at most ``2^n`` set insertions.
    """
    covered: set[int] = set()
    cover = covered.add
    accepted: list[int] = []
    for mask in sorted(masks, key=popcount, reverse=True):
        if mask in covered:
            continue
        accepted.append(mask)
        # Inlined iter_submasks, as in _face_mask_set.
        sub = mask
        while sub:
            cover(sub)
            sub = (sub - 1) & mask
    return accepted


def _remap_mask(mask: int, bit_map: list[int]) -> int:
    """Translate a mask through a per-bit map (old index → new bit)."""
    remapped = 0
    while mask:
        low = mask & -mask
        remapped |= bit_map[low.bit_length() - 1]
        mask ^= low
    return remapped


def _unpickle_complex(facets: frozenset) -> "SimplicialComplex":
    return SimplicialComplex.from_maximal(facets)


class SimplicialComplex:
    """An immutable chromatic simplicial complex, given by its facets.

    Parameters
    ----------
    simplices:
        Any iterable of :class:`Simplex`.  Non-maximal entries are allowed
        and pruned; the stored facets are the inclusion-maximal ones.

    Notes
    -----
    The empty complex (no simplices) is allowed; most topological
    accessors treat it naturally.

    Internal state — two births, one invariant set:

    * *object-born* (``__init__`` / ``from_maximal``): ``_facets`` holds
      the facet frozenset; the mask index (``_table``, ``_masks``) is
      built lazily by ``_ensure_index``.
    * *mask-born* (``_from_masks``, used by every mask-level
      operation): ``_table``/``_masks`` are set and
      ``_facets`` is ``None`` until an API boundary materializes it.

    Whenever ``_masks`` is set it is an ascending tuple of facet masks
    over an interned, canonically sorted table whose entries are exactly
    the complex's vertices — so equal complexes share one table object
    and mask-tuple equality decides complex equality.
    """

    __slots__ = (
        "_facets",
        "_table",
        "_masks",
        "_face_masks",
        "_faces_cache",
        "_vertices_cache",
        "_hash",
    )

    def __init__(self, simplices: Iterable[Simplex] = ()):
        candidates = set(simplices)
        self._table: Optional[VertexTable] = None
        self._masks: Optional[tuple[int, ...]] = None
        self._face_masks: Optional[set[int]] = None
        self._faces_cache: Optional[frozenset[Simplex]] = None
        self._vertices_cache: Optional[frozenset[Vertex]] = None
        self._hash: Optional[int] = None
        if not candidates:
            self._facets: Optional[frozenset[Simplex]] = frozenset()
            _PRUNED_BUILDS.built()
            return
        # Index the distinct vertices in canonical sort order.  Pruning
        # only ever removes subsets of accepted masks, so the candidate
        # vertex set equals the final complex vertex set and the table
        # needs no narrowing afterwards.
        seen: set[Vertex] = set()
        for simplex in candidates:
            seen.update(simplex.vertices)
        ordered = sorted(seen, key=lambda v: v._sort_key())
        table = VertexTable.interned_of(ordered)
        # A mask determines its vertex set, so the dict both dedups and
        # maps accepted masks back to their Simplex objects.
        by_mask: dict[int, Simplex] = {
            table.encode_mask(simplex): simplex for simplex in candidates
        }
        facet_masks = _prune_masks(by_mask)
        self._facets = frozenset(by_mask[mask] for mask in facet_masks)
        self._table = table
        self._masks = tuple(sorted(facet_masks))
        _PRUNED_BUILDS.built()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_maximal(
        cls, facets: Iterable[Simplex]
    ) -> "SimplicialComplex":
        """Trusted fast path: wrap an already inclusion-maximal facet family.

        Skips the pruning pass of ``__init__`` entirely.  The caller
        promises that no entry is a face of another — e.g. the facet set of
        an existing complex, or a family of distinct simplices sharing one
        dimension (the one-round builders produce exactly those).  Passing
        a family that violates the promise corrupts every facet-based
        accessor, so only construction sites that guarantee maximality may
        use this.
        """
        self = object.__new__(cls)
        self._facets = (
            facets if isinstance(facets, frozenset) else frozenset(facets)
        )
        self._table = None
        self._masks = None
        self._face_masks = None
        self._faces_cache = None
        self._vertices_cache = None
        self._hash = None
        _TRUSTED_BUILDS.built()
        return self

    @classmethod
    def _from_masks(
        cls, table: VertexTable, masks: Iterable[int]
    ) -> "SimplicialComplex":
        """Trusted mask-level constructor: maximal masks over a table.

        Facet objects are materialized lazily.  When the masks do not use
        every table entry, the table is narrowed so the minimal-table
        invariant holds (a subsequence of a sorted vertex list is still
        sorted, so narrowing preserves canonicality).
        """
        mask_list = sorted(set(masks))
        if not mask_list:
            return cls.empty()
        used = 0
        for mask in mask_list:
            used |= mask
        if used != table.full_mask:
            ordered = [table.vertex_at(i) for i in iter_bits(used)]
            narrowed = VertexTable.interned_of(ordered)
            bit_map = [0] * (used.bit_length())
            for new_index, old_index in enumerate(iter_bits(used)):
                bit_map[old_index] = 1 << new_index
            mask_list = sorted(
                _remap_mask(mask, bit_map) for mask in mask_list
            )
            table = narrowed
        self = object.__new__(cls)
        self._facets = None
        self._table = table
        self._masks = tuple(mask_list)
        self._face_masks = None
        self._faces_cache = None
        self._vertices_cache = None
        self._hash = None
        _TRUSTED_BUILDS.built()
        return self

    @classmethod
    def from_simplex(cls, simplex: Simplex) -> "SimplicialComplex":
        """The complex ``σ̄`` of all faces of a single simplex."""
        return cls.from_maximal((simplex,))

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        """The empty complex."""
        return cls()

    # ------------------------------------------------------------------
    # The mask index
    # ------------------------------------------------------------------
    def _ensure_index(self) -> tuple[VertexTable, tuple[int, ...]]:
        """The ``(table, facet masks)`` index, built on first use."""
        table, masks = self._table, self._masks
        if masks is not None and table is not None:
            return table, masks
        facets = self.facets
        seen: set[Vertex] = set()
        for facet in facets:
            seen.update(facet.vertices)
        ordered = sorted(seen, key=lambda v: v._sort_key())
        table = VertexTable.interned_of(ordered)
        self._table = table
        self._masks = tuple(
            sorted(table.encode_mask(facet) for facet in facets)
        )
        self._face_masks = None  # tied to the (replaced) table
        return table, self._masks

    def _face_mask_set(self) -> set[int]:
        """Every face of every facet, as masks (memoized)."""
        found = self._face_masks
        if found is None:
            _, masks = self._ensure_index()
            found = set()
            add = found.add
            for mask in masks:
                # Inlined iter_submasks: this walk builds the whole face
                # set of the complex, so generator overhead would be paid
                # once per face.
                sub = mask
                while sub:
                    add(sub)
                    sub = (sub - 1) & mask
            self._face_masks = found
        return found

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def facets(self) -> frozenset[Simplex]:
        """The inclusion-maximal simplices (materialized lazily)."""
        facets = self._facets
        if facets is None:
            table = self._table
            assert table is not None and self._masks is not None
            facets = self._facets = frozenset(
                table.decode_mask_trusted(mask) for mask in self._masks
            )
        return facets

    @property
    def facet_count(self) -> int:
        """``len(facets)`` without materializing facet objects."""
        if self._masks is not None:
            return len(self._masks)
        assert self._facets is not None
        return len(self._facets)

    def sorted_facets(self) -> list[Simplex]:
        """The facets in a deterministic order."""
        return sorted(self.facets, key=lambda s: s._sort_key())

    @property
    def simplices(self) -> frozenset[Simplex]:
        """Every simplex of the complex (all faces of all facets)."""
        if self._faces_cache is None:
            table, _ = self._ensure_index()
            self._faces_cache = frozenset(
                table.decode_mask_trusted(mask)
                for mask in self._face_mask_set()
            )
        return self._faces_cache

    @property
    def vertices(self) -> frozenset[Vertex]:
        """The vertex set ``V(K)``."""
        if self._vertices_cache is None:
            if self._facets is not None:
                found: set[Vertex] = set()
                for facet in self._facets:
                    found.update(facet.vertices)
                self._vertices_cache = frozenset(found)
            else:
                # Mask-born: the (narrowed) table lists exactly V(K).
                table = self._table
                assert table is not None
                self._vertices_cache = frozenset(table.vertices)
        return self._vertices_cache

    def sorted_vertices(self) -> list[Vertex]:
        """The vertices in a deterministic order.

        The canonical table lists exactly the complex's vertices in sort
        order, so this is a copy of the index — no re-sort.
        """
        table, _ = self._ensure_index()
        return list(table.vertices)

    @property
    def ids(self) -> frozenset:
        """The set of colors appearing anywhere in the complex."""
        return frozenset(v.color for v in self.vertices)

    @property
    def dim(self) -> int:
        """The maximal facet dimension; ``-1`` for the empty complex."""
        if self._masks is not None:
            if not self._masks:
                return -1
            return max(popcount(mask) for mask in self._masks) - 1
        assert self._facets is not None
        if not self._facets:
            return -1
        return max(facet.dim for facet in self._facets)

    def is_empty(self) -> bool:
        """``True`` iff the complex has no simplices."""
        if self._masks is not None:
            return not self._masks
        assert self._facets is not None
        return not self._facets

    def is_pure(self) -> bool:
        """``True`` iff all facets have the same dimension."""
        if self._masks is not None:
            sizes = {popcount(mask) for mask in self._masks}
            return len(sizes) <= 1
        assert self._facets is not None
        dims = {facet.dim for facet in self._facets}
        return len(dims) <= 1

    def __contains__(self, simplex: object) -> bool:
        if not isinstance(simplex, Simplex):
            return False
        table, masks = self._ensure_index()
        if not masks:
            return False
        try:
            mask = table.encode_mask(simplex)
        except ChromaticityError:
            # Some vertex is not in the complex at all.
            return False
        return mask in self._face_mask_set()

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices)

    def __len__(self) -> int:
        return len(self._face_mask_set())

    # ------------------------------------------------------------------
    # Derived complexes
    # ------------------------------------------------------------------
    def proj(self, colors: Iterable[int]) -> "SimplicialComplex":
        """The induced subcomplex on vertices with colors in the given set.

        This is the paper's ``proj_I(K)``: keep every simplex whose colors
        all lie in ``colors``.
        """
        keep = frozenset(colors)
        table, masks = self._ensure_index()
        color_mask = table.colors_mask(keep)
        projected: set[int] = set()
        for mask in masks:
            shared = mask & color_mask
            if shared:
                projected.add(shared)
        if not projected:
            return SimplicialComplex.empty()
        return SimplicialComplex._from_masks(
            table, _prune_masks(projected)
        )

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        """All simplices of dimension exactly ``k``, sorted."""
        table, _ = self._ensure_index()
        found = [
            table.decode_mask_trusted(mask)
            for mask in self._face_mask_set()
            if popcount(mask) == k + 1
        ]
        return sorted(found, key=lambda s: s._sort_key())

    def vertices_of_color(self, color: int) -> list[Vertex]:
        """All vertices of the given color, sorted."""
        found = [v for v in self.vertices if v.color == color]
        return sorted(found, key=lambda v: v._sort_key())

    # ------------------------------------------------------------------
    # Masks over the complex's own vertex table
    # ------------------------------------------------------------------
    def mask_of(self, simplex: Simplex) -> Optional[int]:
        """The mask of ``simplex`` over this complex's vertex table.

        ``None`` when some vertex of ``simplex`` is not in ``V(K)``.  The
        mask means something only to this complex (and to complexes
        equal to it, which share its table): combine it with
        :meth:`color_bits` and decode it with :meth:`simplex_of`.
        """
        table, _ = self._ensure_index()
        try:
            return table.encode_mask(simplex)
        except ChromaticityError:
            return None

    def color_bits(self, color: int) -> list[int]:
        """One single-bit mask per vertex of ``color``, in sorted order."""
        table, _ = self._ensure_index()
        return [
            1 << table.index_of(vertex)
            for vertex in self.vertices_of_color(color)
        ]

    def simplex_of(self, mask: int) -> Simplex:
        """The simplex of a mask from :meth:`mask_of`/:meth:`color_bits`."""
        table, _ = self._ensure_index()
        return table.decode_mask_trusted(mask)

    def f_vector(self) -> tuple[int, ...]:
        """The f-vector ``(f_0, f_1, …)``: simplex counts per dimension."""
        if self.is_empty():
            return ()
        counts: dict[int, int] = {}
        for mask in self._face_mask_set():
            dim = popcount(mask) - 1
            counts[dim] = counts.get(dim, 0) + 1
        top = max(counts)
        return tuple(counts.get(d, 0) for d in range(top + 1))

    def euler_characteristic(self) -> int:
        """The Euler characteristic ``Σ (-1)^d f_d``."""
        return sum(
            (-1) ** dim * count for dim, count in enumerate(self.f_vector())
        )

    # ------------------------------------------------------------------
    # Value-object plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        if self is other:
            return True
        if self._masks is not None and other._masks is not None:
            if self._table is other._table:
                return self._masks == other._masks
            # Index tables are interned and minimal: distinct table
            # objects mean distinct vertex sets, hence distinct complexes.
            return False
        return self.facets == other.facets

    def __hash__(self) -> int:
        # Hash through the index, not the facet frozenset: the interned
        # table pins vertex-set identity (equal complexes share one table
        # for as long as either is alive) and the mask tuple pins the
        # facet family, so this is consistent with ``__eq__`` and never
        # materializes a Simplex.
        if self._hash is None:
            table, masks = self._ensure_index()
            self._hash = hash((table.table_id, masks))
        return self._hash

    def __reduce__(self) -> tuple:
        # Pickle by facets only: mask indexes are process-local (table
        # ids and interning do not survive the boundary) and rebuild
        # lazily on the other side.
        return (_unpickle_complex, (self.facets,))

    def __repr__(self) -> str:
        if self.is_empty():
            return "SimplicialComplex(empty)"
        return (
            f"SimplicialComplex(dim={self.dim}, "
            f"facets={self.facet_count}, vertices={len(self.vertices)})"
        )
