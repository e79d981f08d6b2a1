"""Experiments E18, E19, E22 — ablation, scaling, and cache effectiveness."""

from __future__ import annotations

from fractions import Fraction

from repro.core import ClosureComputer
from repro.core.solvability import build_solvability_problem
from repro.errors import SolvabilityError
from repro.models import ImmediateSnapshotModel, ProtocolOperator
from repro.tasks import approximate_agreement_task
from repro.telemetry import default_registry
from repro.topology import Simplex

__all__ = [
    "reproduce_solver_ablation",
    "reproduce_scaling",
    "reproduce_cache_effectiveness",
    "SOLVER_NODE_BUDGET",
]

F = Fraction

#: Node budget after which the ablation declares a configuration thrashing.
SOLVER_NODE_BUDGET = 2_000_000


def _refutation_problem():
    """The canonical refutation: 1-round ε = 1/4 AA for n = 2, m = 4."""
    iis = ImmediateSnapshotModel()
    task = approximate_agreement_task([1, 2], F(1, 4), 4)
    operator = ProtocolOperator(iis)
    return build_solvability_problem(
        list(task.input_complex), task.delta, operator, 1
    )


def _measure_solver(use_propagation: bool, use_components: bool):
    problem = _refutation_problem()
    try:
        result = problem.solve(
            use_propagation=use_propagation,
            use_components=use_components,
            node_limit=SOLVER_NODE_BUDGET,
        )
        exceeded = False
    except SolvabilityError:
        result = "budget-exceeded"
        exceeded = True
    return {
        "refuted": result is None,
        "exceeded": exceeded,
        "nodes": problem.last_search_nodes,
    }


def reproduce_solver_ablation() -> dict[str, dict[str, object]]:
    """E18 — search-node counts per solver configuration."""
    return {
        "full": _measure_solver(True, True),
        "components_only": _measure_solver(False, True),
        "propagation_only": _measure_solver(True, False),
        "none": _measure_solver(False, False),
    }


def reproduce_scaling() -> dict[str, object]:
    """E19 — Fubini growth, per-round protocol growth, cache effectiveness."""
    iis = ImmediateSnapshotModel()
    subdivision_counts = {}
    for n in (1, 2, 3, 4):
        sigma = Simplex((i, i) for i in range(1, n + 1))
        subdivision_counts[n] = len(iis.one_round_complex(sigma).facets)

    operator = ProtocolOperator(iis)
    triangle = Simplex([(1, "a"), (2, "b"), (3, "c")])
    round_counts = {
        t: len(operator.of_simplex(triangle, t).facets) for t in (0, 1, 2)
    }

    task = approximate_agreement_task([1, 2], F(1, 4), 4)
    computer = ClosureComputer(task, iis)
    queries = 0
    for sigma in task.input_complex.simplices_of_dim(1):
        queries += len(computer.legal_outputs(sigma))
    cache_entries = len(computer._membership_cache)

    return {
        "subdivision": subdivision_counts,
        "rounds": round_counts,
        "queries": queries,
        "cache_entries": cache_entries,
    }


#: Sweep iterations of the cache-effectiveness workload.  Mirrors the
#: closure machinery, where each (σ, τ, β) decision historically built its
#: own :class:`ProtocolOperator` over the shared model.
CACHE_SWEEP_OPERATORS = 5


def reproduce_cache_effectiveness() -> dict[str, object]:
    """E22 — one-round materializations saved on the 3-process substrate.

    The workload is the hot pattern of every closure/solvability sweep:
    independent :class:`ProtocolOperator` instances (one per decision, as
    the closure computer used to construct them) each requesting the
    2-round protocol complex of every face of a 3-process input simplex.
    Without the model-level memo every request re-enumerates the ordered
    partitions of Appendix A.3.4, so the pre-caching baseline performs one
    materialization per request; the measured ratio ``requests /
    materializations`` is exactly the saving factor.
    """
    iis = ImmediateSnapshotModel()
    triangle = Simplex([(1, "a"), (2, "b"), (3, "c")])
    faces = list(triangle.faces())

    registry = default_registry()
    before = registry.snapshot()
    protocol = None
    for _ in range(CACHE_SWEEP_OPERATORS):
        operator = ProtocolOperator(iis)
        for face in faces:
            result = operator.of_simplex(face, 2)
            if face is faces[0]:
                protocol = result
    stats = registry.delta(before, registry.snapshot())

    def tallies(name: str) -> tuple[int, int]:
        return (
            int(stats.get(f"cache:{name}:hits", 0)),
            int(stats.get(f"cache:{name}:misses", 0)),
        )

    hits, misses = tallies("one-round-complex[iterated-immediate-snapshot]")
    requests = hits + misses
    op_hits, op_misses = tallies("protocol-operator.of-simplex")
    assert protocol is not None
    return {
        "requests": requests,
        "materializations": misses,
        "saving_factor": requests / misses if misses else float("inf"),
        "operator_requests": op_hits + op_misses,
        "operator_materializations": op_misses,
        "facets": len(protocol.facets),
        "f_vector": protocol.f_vector(),
        "stats": stats,
    }
