"""Protocol complexes ``P^(t)`` and their carriers.

The one-round operator ``Ξ`` of a model sends a simplex to its one-round
complex and a complex to the union over its simplices (Section 2.2).
:class:`ProtocolOperator` memoizes the iteration and tracks, for every
protocol simplex, the *input simplices it can arise from* — the carrier
information needed to state solvability ("for every σ,
``f(P^(t)(σ)) ⊆ Δ(σ)``").
"""

from __future__ import annotations

from repro.models.base import ComputationModel
from repro.telemetry import default_registry, span
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

__all__ = ["ProtocolOperator"]

#: Shared across operator instances on purpose: a sweep that constructs many
#: short-lived operators still aggregates into one hit/miss line.
_OF_SIMPLEX_STATS = default_registry().cache("protocol-operator.of-simplex")


class ProtocolOperator:
    """Memoized iteration of a model's one-round operator ``Ξ``.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.ComputationModel`.
    """

    def __init__(self, model: ComputationModel) -> None:
        self._model = model
        self._simplex_cache: dict[
            tuple[Simplex, int], SimplicialComplex
        ] = {}

    @property
    def model(self) -> ComputationModel:
        """The underlying computation model."""
        return self._model

    def of_simplex(self, sigma: Simplex, rounds: int) -> SimplicialComplex:
        """``P^(t)(σ)`` — executions where exactly ``ID(σ)`` participate.

        For ``rounds == 0`` this is the complex of ``σ`` itself (``Ξ_0`` is
        the identity, Claim 1's setting).
        """
        key = (sigma, rounds)
        found = self._simplex_cache.get(key)
        if found is None:
            _OF_SIMPLEX_STATS.miss()
            if rounds == 0:
                found = SimplicialComplex.from_simplex(sigma)
            else:
                # Span only on a miss; the recursion below nests one span
                # per expanded round under this one.
                with span(
                    "protocol/of-simplex",
                    model=self._model.name,
                    rounds=rounds,
                ):
                    previous = self.of_simplex(sigma, rounds - 1)
                    found = self._one_round_of_complex(previous)
            self._simplex_cache[key] = found
        else:
            _OF_SIMPLEX_STATS.hit()
        return found

    def of_complex(
        self, base: SimplicialComplex, rounds: int
    ) -> SimplicialComplex:
        """``P^(t)`` of a whole input complex: union over its simplices."""
        merged: list[Simplex] = []
        for simplex in base:
            merged.extend(self.of_simplex(simplex, rounds).facets)
        return SimplicialComplex(merged)

    def _one_round_of_complex(
        self, base: SimplicialComplex
    ) -> SimplicialComplex:
        pieces: list[Simplex] = []
        for simplex in base:
            pieces.extend(self._model.one_round_complex(simplex).facets)
        return SimplicialComplex(pieces)

    def carriers(
        self, input_complex: SimplicialComplex, rounds: int
    ) -> dict[Simplex, list[Simplex]]:
        """Map each input simplex ``σ`` to the facets of ``P^(t)(σ)``.

        The solvability engine uses this to impose ``f(ρ) ∈ Δ(σ)`` for every
        protocol facet ``ρ`` of every input simplex ``σ``.
        """
        table: dict[Simplex, list[Simplex]] = {}
        for sigma in input_complex:
            protocol = self.of_simplex(sigma, rounds)
            table[sigma] = protocol.sorted_facets()
        return table
