"""Compact wire codec for simplices and complexes.

The codec interns the distinct ``(color, value)`` pairs of a complex once
in a :class:`~repro.topology.table.VertexTable` and encodes each simplex
as an integer *bitmask* over the table, so a complex is one pair table
plus one ``int`` per facet — instead of repeating every shared
:class:`~repro.topology.vertex.Vertex` once per facet that contains it.

This representation is also the complex's *in-memory* index:
:func:`encode_complex` just re-reads the canonical ``(table, masks)``
pair the complex already maintains (a near-no-op), and the trusted
:func:`decode_complex` path hands the masks straight back to a
lazily-materializing complex without rebuilding one vertex object.

The encoding is canonical: the table lists vertices in their
deterministic sort order and facet masks are emitted sorted, so equal
complexes encode to equal :class:`WireComplex` records, and the wire
form doubles as a compact, hashable *key*.

``encode``/``decode`` round-trip exactly (property-tested in
``tests/topology/test_wire.py``): the facets of a
:class:`~repro.topology.complex.SimplicialComplex` are inclusion-maximal
by construction, masks preserve exactly that family, and decoding goes
through the trusted mask-level fast path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterator, Optional

from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.table import VertexTable
from repro.topology.vertex import Vertex

__all__ = [
    "VertexTable",
    "WireSimplex",
    "WireComplex",
    "encode_simplex",
    "decode_simplex",
    "encode_complex",
    "decode_complex",
    "canonical_bytes",
    "digest_payload",
    "digest_complex",
]


@dataclass(frozen=True)
class WireSimplex:
    """One simplex in wire form: its own pair table (it is its own mask).

    Hashable and canonical (pairs are stored in vertex sort order), so it
    doubles as a dedup/memo key.
    """

    pairs: tuple[tuple[int, Hashable], ...]


@dataclass(frozen=True)
class WireComplex:
    """A complex in wire form: interned pair table + facet bitmasks.

    ``pairs`` lists the distinct vertices in deterministic sort order;
    ``masks`` holds one bitmask per facet, sorted ascending.  Equal
    complexes produce equal (and equally hashable) records, so a
    ``WireComplex`` is also a valid cache key.
    """

    pairs: tuple[tuple[int, Hashable], ...]
    masks: tuple[int, ...]

    @property
    def facet_count(self) -> int:
        """Number of encoded facets."""
        return len(self.masks)


def encode_simplex(simplex: Simplex) -> WireSimplex:
    """Encode one simplex canonically (pairs in vertex sort order)."""
    return WireSimplex(tuple(v.as_pair() for v in simplex.vertices))


def decode_simplex(wire: WireSimplex) -> Simplex:
    """Rebuild a simplex from its wire form."""
    return Simplex(Vertex(color, value) for color, value in wire.pairs)


def encode_complex(complex_: SimplicialComplex) -> WireComplex:
    """Encode a complex canonically as a pair table plus facet bitmasks.

    The complex's own mask index *is* the canonical representation (the
    table lists the vertices in deterministic sort order and the mask
    tuple is stored sorted), so encoding only re-reads it — the historic
    re-interning pass is gone.  The empty complex encodes to empty
    tuples.
    """
    table, masks = complex_._ensure_index()
    return WireComplex(table.pairs, masks)


def decode_complex(
    wire: WireComplex, check: Optional[bool] = None
) -> SimplicialComplex:
    """Rebuild a complex from its wire form.

    Records produced by :func:`encode_complex` carry the facets of a
    real complex — inclusion-maximal masks over a canonically sorted
    table — so decoding takes the trusted mask-level path: the table is
    interned process-wide and facet ``Simplex`` objects materialize only
    if an API boundary asks for them.  Pass ``check=True`` for foreign
    records (hand-built masks): the decoder then materializes every
    facet and routes through the pruning constructor, which tolerates —
    and prunes — non-maximal families.
    """
    table = VertexTable.interned(wire.pairs)
    if check:
        return SimplicialComplex(
            [table.decode_mask(mask) for mask in wire.masks]
        )
    if not wire.masks:
        return SimplicialComplex.empty()
    # Bounds-check the masks (decode_mask would have); the mask-level
    # constructor then narrows/validates table order itself.
    full = table.full_mask
    for mask in wire.masks:
        if mask <= 0 or mask & ~full:
            return SimplicialComplex(
                [table.decode_mask(mask) for mask in wire.masks]
            )
    return SimplicialComplex._from_masks(table, wire.masks)


# ----------------------------------------------------------------------
# Canonical digests (content-addressed keys)
# ----------------------------------------------------------------------
def _canonical_chunks(value: object) -> Iterator[bytes]:
    """Yield a type-tagged, self-delimiting byte encoding of ``value``.

    The encoding is injective on the value universe the codec actually
    carries — ``None``, booleans, integers, :class:`~fractions.Fraction`,
    floats, strings, bytes, and (nested) tuples/lists, sets/frozensets,
    and dictionaries.  Every chunk starts with a one-byte type tag and
    carries an explicit length or terminator, so no two distinct values
    can concatenate to the same stream (the classic ``("ab","c")`` vs
    ``("a","bc")`` ambiguity is excluded by the length prefixes).

    Unknown immutable value objects (e.g. :class:`~repro.topology.views.
    View`) fall back to their type name plus ``repr``, which is stable
    and content-determined for the library's value objects.
    """
    # bool before int: Python booleans are integers.
    if value is None:
        yield b"N;"
    elif isinstance(value, bool):
        yield b"B1;" if value else b"B0;"
    elif isinstance(value, int):
        yield b"I%d;" % value
    elif isinstance(value, Fraction):
        yield b"Q%d/%d;" % (value.numerator, value.denominator)
    elif isinstance(value, float):
        raw = repr(value).encode("ascii")
        yield b"F%d:%s;" % (len(raw), raw)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        yield b"S%d:%s;" % (len(raw), raw)
    elif isinstance(value, (bytes, bytearray)):
        yield b"Y%d:%s;" % (len(value), bytes(value))
    elif isinstance(value, (tuple, list)):
        yield b"T%d:" % len(value)
        for item in value:
            yield from _canonical_chunks(item)
        yield b";"
    elif isinstance(value, (set, frozenset)):
        encoded = sorted(
            b"".join(_canonical_chunks(item)) for item in value
        )
        yield b"U%d:" % len(encoded)
        for chunk in encoded:
            yield chunk
        yield b";"
    elif isinstance(value, dict):
        pairs = sorted(
            b"".join(_canonical_chunks(key))
            + b"".join(_canonical_chunks(item))
            for key, item in value.items()
        )
        yield b"D%d:" % len(pairs)
        for chunk in pairs:
            yield chunk
        yield b";"
    else:
        tag = type(value).__name__.encode("utf-8")
        raw = repr(value).encode("utf-8")
        yield b"O%d:%s:%d:%s;" % (len(tag), tag, len(raw), raw)


def canonical_bytes(payload: object) -> bytes:
    """The canonical byte encoding of a structured payload.

    Equal payloads (by structural value, not identity) produce equal
    bytes in every process and on every platform; this is the input of
    :func:`digest_payload`.
    """
    return b"".join(_canonical_chunks(payload))


def digest_payload(payload: object) -> str:
    """The sha256 hex digest of :func:`canonical_bytes` of ``payload``.

    A content-addressed memo key for any canonically-encodable value,
    stable across processes and releases (pinned by golden constants
    and property-tested in ``tests/topology/test_wire.py``).
    """
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def digest_complex(complex_: SimplicialComplex) -> str:
    """The sha256 hex digest of a complex's canonical wire encoding.

    Equal complexes — however they were constructed — digest equally,
    because :func:`encode_complex` is canonical (sorted vertex table,
    sorted facet masks); distinct complexes digest differently up to
    sha256 collisions.
    """
    wire = encode_complex(complex_)
    return digest_payload(("wire-complex", wire.pairs, wire.masks))
