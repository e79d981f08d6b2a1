"""Model interfaces.

Two layers of abstraction:

* :class:`ComputationModel` is what the closure/solvability engine consumes —
  anything that can produce the ``t``-round protocol complex of an input
  simplex and extend a process's view by a solo round (the operation at the
  heart of the speedup theorem's ``f ↦ f'`` construction).

* :class:`IteratedModel` is the register-only specialization: a model defined
  by a set of one-round schedules (collect / snapshot / immediate snapshot /
  affine restrictions).  Augmented models (with black boxes) implement
  :class:`ComputationModel` directly in :mod:`repro.objects.augmented`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable

from repro.telemetry import default_registry, span
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex
from repro.topology.views import View

__all__ = ["ComputationModel", "IteratedModel"]


class ComputationModel(ABC):
    """Anything the solvability and closure engines can reason about."""

    #: Human-readable model name, used in reports and experiment tables.
    name: str = "abstract"

    def one_round_complex(self, sigma: Simplex) -> SimplicialComplex:
        """The complex ``P^(1)(σ)`` of one-round executions of ``ID(σ)``.

        The returned complex contains only the executions in which *exactly*
        the processes of ``σ`` participate; executions of faces of ``σ`` are
        obtained by calling this method on the faces (the protocol operator
        takes the union).

        Results are memoized per input simplex at the model level, so every
        :class:`~repro.models.protocol.ProtocolOperator` iteration and every
        ``σ`` of a solvability sweep over the same model instance shares
        one materialization; subclasses implement the actual enumeration in
        :meth:`_build_one_round_complex`.  Entries are keyed by ``σ``
        itself (simplices cache their hash).
        """
        cache = getattr(self, "_one_round_cache", None)
        if cache is None:
            cache = self._one_round_cache = {}
            # Per-instance lazy init: the counter name embeds self.name,
            # so a module-level fetch is impossible; this runs once per
            # model instance, not per lookup.
            self._one_round_stats = default_registry().cache(  # norpr: RPR003
                f"one-round-complex[{self.name}]"
            )
        found = cache.get(sigma)
        if found is None:
            self._one_round_stats.miss()
            # The span is opened only on a miss: cache hits stay a bare
            # dict lookup, and with telemetry disabled the miss path pays
            # one no-op handle.
            with span(
                "model/one-round-build",
                model=self.name,
                participants=len(sigma.ids),
            ):
                found = cache[sigma] = self._build_one_round_complex(sigma)
        else:
            self._one_round_stats.hit()
        return found

    @abstractmethod
    def _build_one_round_complex(self, sigma: Simplex) -> SimplicialComplex:
        """Materialize ``P^(1)(σ)`` (uncached hook behind the memo layer)."""

    @abstractmethod
    def solo_value(self, vertex: Vertex) -> Hashable:
        """The value of ``vertex``'s carrier after one *solo* round.

        For register-only models this is the view ``{(i, V_i)}``; augmented
        models pair it with the black box's solo output.  This is the
        operation used to define ``f'(i, V_i) = f(i, solo_value)`` in the
        proofs of Theorems 1 and 2.
        """

    def solo_vertex(self, vertex: Vertex) -> Vertex:
        """The protocol vertex reached from ``vertex`` by a solo round."""
        return Vertex(vertex.color, self.solo_value(vertex))

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def protocol_complex(
        self, base: SimplicialComplex, rounds: int
    ) -> SimplicialComplex:
        """Apply the one-round operator ``Ξ`` to a complex, ``rounds`` times.

        ``Ξ(K)`` is the union of ``P^(1)(σ)`` over every simplex ``σ ∈ K``
        (Section 2.2).
        """
        current = base
        for _ in range(rounds):
            pieces = [
                self.one_round_complex(simplex) for simplex in current
            ]
            merged = SimplicialComplex(
                facet for piece in pieces for facet in piece.facets
            )
            current = merged
        return current

    def protocol_complex_of_simplex(
        self, sigma: Simplex, rounds: int
    ) -> SimplicialComplex:
        """``P^(t)(σ)``: the ``rounds``-round protocol complex of ``σ``."""
        return self.protocol_complex(
            SimplicialComplex.from_simplex(sigma), rounds
        )

    def allows_solo_executions(self, ids: Iterable[int]) -> bool:
        """Check the speedup theorem's hypothesis on a participant set.

        For every process ``i``, some execution must give ``i`` the solo
        view; we verify it on a canonical input simplex over ``ids``.
        """
        id_list = sorted(set(ids))
        sigma = Simplex((i, f"x{i}") for i in id_list)
        complex_ = self.one_round_complex(sigma)
        for i in id_list:
            solo = self.solo_vertex(Vertex(i, f"x{i}"))
            if solo not in complex_.vertices:
                return False
        return True


class IteratedModel(ComputationModel):
    """A register-only iterated model defined by one-round view maps."""

    def view_maps(
        self, ids: frozenset[int]
    ) -> list[dict[int, frozenset[int]]]:
        """The distinct per-process view maps of one round among ``ids``.

        Memoized per participant set at the model level; subclasses
        implement the enumeration in :meth:`_enumerate_view_maps`.
        """
        cache = getattr(self, "_view_map_cache", None)
        if cache is None:
            cache = self._view_map_cache = {}
            # Same per-instance lazy init as one_round_complex above.
            self._view_map_stats = default_registry().cache(  # norpr: RPR003
                f"view-maps[{self.name}]"
            )
        key = frozenset(ids)
        found = cache.get(key)
        if found is None:
            self._view_map_stats.miss()
            found = cache[key] = self._enumerate_view_maps(key)
        else:
            self._view_map_stats.hit()
        return found

    @abstractmethod
    def _enumerate_view_maps(
        self, ids: frozenset[int]
    ) -> list[dict[int, frozenset[int]]]:
        """Enumerate the view maps (uncached hook behind :meth:`view_maps`)."""

    def _build_one_round_complex(self, sigma: Simplex) -> SimplicialComplex:
        """Materialize the view maps into the complex ``P^(1)(σ)``."""
        facets = set()
        values = sigma.as_mapping()
        for view_map in self.view_maps(sigma.ids):
            vertices = []
            for process, seen in view_map.items():
                view = View((j, values[j]) for j in seen)
                vertices.append(Vertex(process, view))
            facets.add(Simplex(vertices))
        # Every view map covers all of ID(σ), so the facets share one
        # dimension and the family is maximal as-is.
        return SimplicialComplex.from_maximal(facets)

    def solo_value(self, vertex: Vertex) -> Hashable:
        """A solo round leaves process ``i`` with the view ``{(i, value)}``."""
        return View([(vertex.color, vertex.value)])
