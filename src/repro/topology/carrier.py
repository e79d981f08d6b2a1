"""Carrier maps.

A carrier map ``Δ : K → 2^{K'}`` assigns to every simplex of ``K`` a
subcomplex of ``K'`` on the same colors, monotonically (``σ' ⊆ σ`` implies
``Δ(σ') ⊆ Δ(σ)``).  Task specifications, protocol-complex maps ``Ξ``, and
closure maps ``Δ'`` are all carrier-like; the paper deliberately does *not*
force task maps to be monotone, so :class:`CarrierMap` does not enforce
it (audit rules AUD003 and AUD004 check name preservation and declared
monotonicity).

Evaluations are memoized under ``(table_id, mask)`` int-pair keys over
the domain complex's canonical vertex table — the same strict-probe
discipline as the model memos: the strict
:meth:`~repro.topology.table.VertexTable.encode_mask` either yields the
canonical mask or proves the simplex foreign to the domain, and hashing
two small ints beats re-hashing a vertex tuple on every Δ evaluation.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ChromaticityError
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

    def __repr__(self) -> str:
        return f"CarrierMap({self._name}, domain={self._domain!r})"
