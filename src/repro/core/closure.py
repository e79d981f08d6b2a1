"""The closure of a task with respect to a model (Definition 2).

``CL_M(Π) = (I, O', Δ')`` keeps the inputs of ``Π`` and declares an output
set ``τ ⊆ V(Δ(σ))`` (chromatic, ``ID(τ) = ID(σ)``) legal for ``σ`` iff the
local task ``Π_{τ,σ}`` is solvable in at most one round in ``M``.  Since a
0-round algorithm is subsumed by a 1-round algorithm that ignores what it
collected, membership reduces to 1-round solvability, decided exactly by the
engine of :mod:`repro.core.solvability`.

Three practical notes:

* membership only depends on the pair ``(Δ(σ), τ)``, so results are memoized
  on that pair — sweeps over many input simplices with the same output
  window (ubiquitous in approximate agreement) share almost all the work;
* the candidates ``τ`` of one window share one compiled one-round network.
  By Definition 1, ``Π_{τ,σ}`` depends on ``τ`` only through condition 1,
  which pins each solo process ``i`` to ``τ_i``; every larger face ranges
  over ``proj(Δ(σ))``.  And the one-round complex of ``τ`` is a
  value-relabelling of one shape, fixed by the model's shape key of
  ``τ`` (``ID(τ)``, plus the box inputs ``α(τ_i)`` in augmented
  models).  So the network is compiled once per ``(Δ(σ), shape key)``
  with the solo domains left free, and each ``τ`` is
  decided by ANDing ``τ_i`` into the solo domains;
* for augmented models whose box takes inputs, the one-round algorithm is a
  pair ``(α, f)`` and the model carries the input function ``α``, so the
  closure is the ``β``-restricted ``CL_M(Π|β)`` of Theorem 4 — the only
  closure of an augmented model the paper needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, Optional

from repro.core.solvability import (
    SolvabilityProblem,
    build_solvability_problem,
)
from repro.models.base import ComputationModel
from repro.models.protocol import ProtocolOperator
from repro.tasks.task import Task
from repro.telemetry import default_registry, span
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

__all__ = ["ClosureComputer"]

_MEMBERSHIP_STATS = default_registry().cache("closure.membership")


@dataclass(frozen=True)
class _Window:
    """The one-round network shared by the candidates ``τ`` of a window.

    It is compiled from the first ``τ`` decided, so its protocol vertices
    carry that ``τ``'s values; for any other ``τ`` they stand for the
    vertices of the same schedule and box outputs.
    """

    #: The network at arc consistency before any pin; ``None`` if that
    #: already refutes it, and with it every ``τ`` of the window.
    settled: Optional[SolvabilityProblem]
    #: Per process, the network indices of its solo vertices.
    solo: dict[int, tuple[int, ...]]
    #: The network's output bit of each vertex of ``Δ(σ)``.
    bit_of: dict[Vertex, int]

    def admits(self, tau: Simplex) -> bool:
        """Is ``Π_{τ,σ}`` solvable in the window's one round?"""
        if self.settled is None:
            return False
        pins: dict[int, int] = {}
        for vertex in tau.vertices:
            for index in self.solo[vertex.color]:
                pins[index] = self.bit_of[vertex]
        problem = self.settled.pinned(pins)
        return problem is not None and problem.solve() is not None


class ClosureComputer:
    """Computes ``Δ'`` of ``CL_M(Π)`` membership-by-membership.

    Parameters
    ----------
    task:
        The task ``Π`` being closed.
    model:
        The computation model ``M``.  For augmented models with an
        input-taking box, the model's own input function defines the
        admissible one-round algorithms (the ``β``-closure).
    """

    def __init__(self, task: Task, model: ComputationModel) -> None:
        self._task = task
        self._model = model
        #: Membership keyed by ``(Δ(σ), Δ(σ).mask_of(τ))``.  Equal allowed
        #: complexes share one vertex table, so the mask is canonical; the
        #: complex stays in the key because a mask only means something
        #: relative to the complex that produced it.
        self._membership_cache: dict[
            tuple[SimplicialComplex, int], bool
        ] = {}
        self._delta_cache: dict[Simplex, SimplicialComplex] = {}
        # One memoized operator shared by every (σ, τ) decision — the
        # model's own one-round cache makes a fresh operator cheap, but
        # reusing a single instance also shares the iterated ``P^(t)``
        # complexes across decisions.
        self._operator = ProtocolOperator(model)
        #: Networks keyed by ``(Δ(σ), shape key of τ)``.
        self._windows: dict[tuple[SimplicialComplex, Hashable], _Window] = {}

    @property
    def task(self) -> Task:
        """The task being closed."""
        return self._task

    @property
    def model(self) -> ComputationModel:
        """The model the closure is taken with respect to."""
        return self._model

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def contains(self, sigma: Simplex, tau: Simplex) -> bool:
        """``τ ∈ Δ'(σ)``: is the local task ``Π_{τ,σ}`` 1-round solvable?

        Definition 2 additionally requires ``ID(τ) = ID(σ)`` and
        ``τ ⊆ V(Δ(σ))``; candidates violating either are simply not in the
        closure.
        """
        if tau.ids != sigma.ids:
            return False
        allowed = self._task.delta(sigma)
        # mask_of doubles as the τ ⊆ V(Δ(σ)) test.
        mask = allowed.mask_of(tau)
        if mask is None:
            return False
        return self._contains_mask(allowed, mask, tau)

    def _contains_mask(
        self,
        allowed: SimplicialComplex,
        mask: int,
        tau: Optional[Simplex] = None,
    ) -> bool:
        """Memoized membership for a τ given as ``allowed.mask_of(τ)``.

        ``τ`` itself is only materialized on a cache miss (the local-task
        decision needs the simplex); mask-level sweeps like
        :meth:`legal_outputs` pass the mask alone.
        """
        key = (allowed, mask)
        found = self._membership_cache.get(key)
        if found is None:
            _MEMBERSHIP_STATS.miss()
            if tau is None:
                tau = allowed.simplex_of(mask)
            found = self._membership_cache[key] = self._decide(tau, allowed)
        else:
            _MEMBERSHIP_STATS.hit()
        return found

    def _decide(self, tau: Simplex, allowed: SimplicialComplex) -> bool:
        # Fast path: τ ∈ Δ(σ) is 0-round solvable (each process keeps its
        # value), hence in the closure — the containment Δ ⊆ Δ' of the
        # paper's remark after Definition 2.
        if tau in allowed:
            return True
        with span(
            "closure/decide",
            task=self._task.name,
            model=self._model.name,
            participants=len(tau.ids),
        ) as decision_span:
            member = self._window(allowed, tau).admits(tau)
            decision_span.set_attribute("member", member)
            return member

    def _window(self, allowed: SimplicialComplex, tau: Simplex) -> _Window:
        """The shared network of ``τ``'s window, compiled on a miss.

        Every face of ``τ`` is constrained by ``proj_{ID(face)}(Δ(σ))``,
        singletons included, so no domain holds condition 1 yet.
        """
        key = (allowed, self._model.shape_key(tau, 1))
        window = self._windows.get(key)
        if window is not None:
            return window
        with span(
            "closure/compile-window",
            task=self._task.name,
            model=self._model.name,
            participants=len(tau.ids),
        ):
            operator = self._operator
            network = build_solvability_problem(
                tau.faces(),
                lambda face: allowed.proj(face.ids),
                operator,
                1,
            )
            solo: dict[int, tuple[int, ...]] = {}
            for vertex in tau.vertices:
                alone = Simplex([vertex])
                solo[vertex.color] = tuple(
                    network.rank_of(key)
                    for key in operator.template(alone, 1).keys(alone)
                )
            bit_of = {
                vertex: 1 << bit for bit, vertex in enumerate(network.outputs)
            }
            window = self._windows[key] = _Window(
                network.propagated(), solo, bit_of
            )
        return window

    # ------------------------------------------------------------------
    # The closure's specification
    # ------------------------------------------------------------------
    def legal_outputs(self, sigma: Simplex) -> list[Simplex]:
        """All chromatic sets ``τ ∈ Δ'(σ)`` with ``ID(τ) = ID(σ)``, sorted."""
        with span(
            "closure/legal-outputs",
            task=self._task.name,
            model=self._model.name,
        ):
            allowed = self._task.delta(sigma)
            # Candidate τ masks come straight off Δ(σ)'s per-color bits;
            # a Simplex is built only for cache-missing members (inside
            # _contains_mask) and for the returned results.
            per_color = [
                allowed.color_bits(color) for color in sorted(sigma.ids)
            ]
            found = []
            for combo in product(*per_color):
                mask = 0
                for bit in combo:
                    mask |= bit
                if self._contains_mask(allowed, mask):
                    found.append(mask)
            return sorted(
                (allowed.simplex_of(mask) for mask in found),
                key=lambda s: s._sort_key(),
            )

    def delta_prime(self, sigma: Simplex) -> SimplicialComplex:
        """``Δ'(σ)`` as a complex (the legal ``τ`` sets and their faces)."""
        if sigma not in self._delta_cache:
            self._delta_cache[sigma] = SimplicialComplex(
                self.legal_outputs(sigma)
            )
        return self._delta_cache[sigma]

    def as_task(
        self, input_simplices: Optional[Iterable[Simplex]] = None
    ) -> Task:
        """Materialize ``CL_M(Π)`` as a :class:`Task`.

        The output complex ``O'`` is the union of ``Δ'`` over the given
        input simplices (default: the whole input complex), per
        Definition 2 ("the simplices of O' are the images of Δ' and all
        their faces").
        """
        pool = (
            list(input_simplices)
            if input_simplices is not None
            else list(self._task.input_complex)
        )
        with span(
            "closure/as-task",
            task=self._task.name,
            model=self._model.name,
            inputs=len(pool),
        ):
            output_facets = []
            for sigma in pool:
                output_facets.extend(self.delta_prime(sigma).facets)
            output_complex = SimplicialComplex(output_facets)
        return Task(
            f"CL_{self._model.name}({self._task.name})",
            self._task.input_complex,
            output_complex,
            self.delta_prime,
        )

