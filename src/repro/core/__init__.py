"""The paper's core machinery.

* :mod:`repro.core.solvability` — a complete decision procedure for
  "``Π`` is solvable in ``t`` rounds in ``M``" on finite instances, by
  exhaustive search for a chromatic simplicial map ``f : P^(t) → O``
  agreeing with ``Δ`` (Section 2.2's definition of solvability).
* :mod:`repro.core.certify` — an independent check of the decision maps
  that procedure returns, on the original complexes.
* :mod:`repro.core.local_task` — the local task ``Π_{τ,σ}``
  (Definition 1).
* :mod:`repro.core.closure` — the closure ``CL_M(Π)`` (Definition 2) and
  the β-restricted closure ``CL_M(Π|β)`` of Theorem 4.
* :mod:`repro.core.speedup` — the constructive speedup transformation
  ``f ↦ f'`` of Theorems 1 and 2, with verification.
* :mod:`repro.core.fixed_point` — fixed-point detection and the
  impossibility argument of Lemma 1.
* :mod:`repro.core.lower_bounds` — round-lower-bound engines: generic
  closure iteration, and the closed-form bounds of Corollary 3,
  Theorem 3, and Theorem 4.
"""

from repro.core.solvability import (
    DecisionMap,
    SolvabilityProblem,
    build_solvability_problem,
    find_decision_map,
    is_solvable,
)
from repro.core.certify import check_decision_map
from repro.core.local_task import local_task
from repro.core.closure import ClosureComputer
from repro.core.speedup import speedup_decision_map, verify_speedup_theorem
from repro.core.fixed_point import (
    FixedPointReport,
    impossibility_from_fixed_point,
)
from repro.core.lower_bounds import (
    ceil_log,
    iterated_closure_lower_bound,
    aa_lower_bound_iis,
    aa_lower_bound_iis_tas,
    aa_lower_bound_iis_bc,
)

__all__ = [
    "DecisionMap",
    "SolvabilityProblem",
    "build_solvability_problem",
    "find_decision_map",
    "is_solvable",
    "check_decision_map",
    "local_task",
    "ClosureComputer",
    "speedup_decision_map",
    "verify_speedup_theorem",
    "FixedPointReport",
    "impossibility_from_fixed_point",
    "ceil_log",
    "iterated_closure_lower_bound",
    "aa_lower_bound_iis",
    "aa_lower_bound_iis_tas",
    "aa_lower_bound_iis_bc",
]
