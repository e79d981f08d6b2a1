"""Carrier maps.

A carrier map ``Δ : K → 2^{K'}`` assigns to every simplex of ``K`` a
subcomplex of ``K'`` on the same colors, monotonically (``σ' ⊆ σ`` implies
``Δ(σ') ⊆ Δ(σ)``).  Task specifications, protocol-complex maps ``Ξ``, and
closure maps ``Δ'`` are all carrier-like; the paper deliberately does *not*
force task maps to be monotone, so :class:`CarrierMap` records the property
instead of enforcing it.

Evaluations are memoized under ``(table_id, mask)`` int-pair keys over
the domain complex's canonical vertex table — the same strict-probe
discipline as the model memos: the strict
:meth:`~repro.topology.table.VertexTable.encode_mask` either yields the
canonical mask or proves the simplex foreign to the domain, and hashing
two small ints beats re-hashing a vertex tuple on every Δ evaluation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from repro.errors import ChromaticityError, TaskSpecificationError
from repro.telemetry import default_registry
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.table import VertexTable

__all__ = ["CarrierMap"]

_CARRIER_STATS = default_registry().cache("carrier.evaluations")


class CarrierMap:
    """A map from simplices to subcomplexes, evaluated lazily.

    Parameters
    ----------
    domain:
        The complex whose simplices the map accepts.
    function:
        A callable ``σ ↦ SimplicialComplex``.  Results are memoized.
    name:
        Optional human-readable label used in ``repr``.
    """

    __slots__ = (
        "_domain",
        "_function",
        "_table",
        "_cache",
        "_foreign_cache",
        "_name",
    )

    def __init__(
        self,
        domain: SimplicialComplex,
        function: Callable[[Simplex], SimplicialComplex],
        name: Optional[str] = None,
    ):
        self._domain = domain
        self._function = function
        #: The domain's canonical table, bound on first evaluation (the
        #: index may not exist yet at construction time).
        self._table: Optional[VertexTable] = None
        self._cache: dict[tuple[int, int], SimplicialComplex] = {}
        #: Simplices with vertices outside the domain's table cannot be
        #: encoded against it; the class has always accepted them (the
        #: function decides whether they are an error), so they memoize
        #: in a simplex-keyed side table instead.
        self._foreign_cache: dict[Simplex, SimplicialComplex] = {}
        self._name = name or "Δ"

    @classmethod
    def from_mapping(
        cls,
        domain: SimplicialComplex,
        mapping: Mapping[Simplex, SimplicialComplex],
        name: Optional[str] = None,
    ) -> "CarrierMap":
        """Build a carrier map from an explicit table."""
        table = dict(mapping)

        def lookup(simplex: Simplex) -> SimplicialComplex:
            try:
                return table[simplex]
            except KeyError:
                raise TaskSpecificationError(
                    f"carrier map has no entry for {simplex!r}"
                ) from None

        return cls(domain, lookup, name=name)

    @property
    def domain(self) -> SimplicialComplex:
        """The domain complex."""
        return self._domain

    def __call__(self, simplex: Simplex) -> SimplicialComplex:
        table = self._table
        if table is None:
            table = self._table = self._domain._ensure_index()[0]
        try:
            key = (table.table_id, table.encode_mask(simplex))
        except ChromaticityError:
            found = self._foreign_cache.get(simplex)
            if found is None:
                _CARRIER_STATS.miss()
                found = self._foreign_cache[simplex] = self._function(
                    simplex
                )
            else:
                _CARRIER_STATS.hit()
            return found
        found = self._cache.get(key)
        if found is None:
            _CARRIER_STATS.miss()
            found = self._cache[key] = self._function(simplex)
        else:
            _CARRIER_STATS.hit()
        return found

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------
    def is_monotone(
        self, simplices: Optional[Iterable[Simplex]] = None
    ) -> bool:
        """Check ``σ' ⊆ σ ⟹ Δ(σ') ⊆ Δ(σ)`` over the given simplices.

        When ``simplices`` is omitted, the check runs over every simplex of
        the domain — fine for the small complexes of this library.
        """
        pool = list(simplices) if simplices is not None else list(self._domain)
        for simplex in pool:
            big = self(simplex).simplices
            for face in simplex.proper_faces():
                if not self(face).simplices <= big:
                    return False
        return True

    def is_chromatic(
        self, simplices: Optional[Iterable[Simplex]] = None
    ) -> bool:
        """Check that ``Δ(σ)`` only uses the colors of ``σ``."""
        pool = list(simplices) if simplices is not None else list(self._domain)
        return all(self(simplex).ids <= simplex.ids for simplex in pool)

    def agrees_on(
        self,
        other: "CarrierMap",
        simplices: Optional[Iterable[Simplex]] = None,
    ) -> bool:
        """``True`` iff both maps return equal complexes on every simplex."""
        pool = list(simplices) if simplices is not None else list(self._domain)
        return all(self(simplex) == other(simplex) for simplex in pool)

    def total_image(self) -> SimplicialComplex:
        """The union ``∪_σ Δ(σ)`` over all facets of the domain."""
        image = SimplicialComplex.empty()
        for facet in self._domain.facets:
            image = image.union(self(facet))
        return image

    def __repr__(self) -> str:
        return f"CarrierMap({self._name}, domain={self._domain!r})"
