"""Carrier maps.

A carrier map ``Δ : K → 2^{K'}`` assigns to every simplex of ``K`` a
subcomplex of ``K'`` on the same colors, monotonically (``σ' ⊆ σ`` implies
``Δ(σ') ⊆ Δ(σ)``).  Task specifications, protocol-complex maps ``Ξ``, and
closure maps ``Δ'`` are all carrier-like; the paper deliberately does *not*
force task maps to be monotone, so :class:`CarrierMap` does not enforce
it.  Name preservation of every task map and monotonicity of every
model's ``Ξ`` are tier-1 tests (``tests/tasks/test_well_formed.py``,
``tests/models/test_one_round_structure.py``).

Evaluations are memoized per simplex: a :class:`Simplex` caches its
hash, so a memo hit is one dict lookup.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

__all__ = ["CarrierMap"]


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

    __slots__ = ("_domain", "_function", "_cache", "_name")

    def __init__(
        self,
        domain: SimplicialComplex,
        function: Callable[[Simplex], SimplicialComplex],
        name: Optional[str] = None,
    ):
        self._domain = domain
        self._function = function
        #: Simplices outside the domain are accepted too: the function
        #: decides whether they are an error.
        self._cache: dict[Simplex, SimplicialComplex] = {}
        self._name = name or "Δ"

    @property
    def domain(self) -> SimplicialComplex:
        """The domain complex."""
        return self._domain

    def __call__(self, simplex: Simplex) -> SimplicialComplex:
        found = self._cache.get(simplex)
        if found is None:
            found = self._cache[simplex] = self._function(simplex)
        return found

    def __repr__(self) -> str:
        return f"CarrierMap({self._name}, domain={self._domain!r})"
