"""Round lower bounds from closure iteration.

Two engines:

* a **generic** one (:func:`iterated_closure_lower_bound`): repeatedly
  replace the task by its closure and test 0-round solvability.  By the
  speedup theorem, if the ``r``-fold closure is still not 0-round solvable,
  the task needs more than ``r`` rounds.  Exact, but exponential — use it on
  small instances.

* **closed forms** for approximate agreement, encoding the recursions the
  paper derives from the verified closure identities:

  - Corollary 3:  ``⌈log₃ 1/ε⌉`` rounds for ``n = 2`` (the closure of ε-AA
    is 3ε-AA) and ``⌈log₂ 1/ε⌉`` for ``n ≥ 3`` (the closure of liberal ε-AA
    is liberal 2ε-AA), both in wait-free IIS;
  - Theorem 3: the same ``⌈log₂ 1/ε⌉`` with test&set, for ``n ≥ 3``
    (test&set does not help);
  - Theorem 4: ``min{⌈log₂ 1/ε⌉, ⌈log₂ n⌉ − 1}`` with an ID-called binary
    consensus object (each β-closure halves the participant set *and*
    doubles ε).

The closed forms are backed by benches that verify the closure identities
computationally on grid instances (Claims 2–4, 6).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from repro.core.closure import ClosureComputer
from repro.core.solvability import is_solvable
from repro.errors import SolvabilityError
from repro.models.base import ComputationModel
from repro.tasks.task import Task
from repro.telemetry import span

__all__ = [
    "ceil_log",
    "iterated_closure_lower_bound",
    "aa_lower_bound_iis",
    "aa_lower_bound_iis_tas",
    "aa_lower_bound_iis_bc",
]

Rational = Union[Fraction, int, str]


def ceil_log(base: int, value: Rational) -> int:
    """``⌈log_base(value)⌉`` computed exactly over the rationals.

    The smallest non-negative integer ``t`` with ``base^t ≥ value``.
    """
    if base < 2:
        raise SolvabilityError("logarithm base must be at least 2")
    target = Fraction(value)
    if target <= 1:
        return 0
    t = 0
    power = Fraction(1)
    while power < target:
        power *= base
        t += 1
    return t


def _inverse_epsilon(epsilon: Rational) -> Fraction:
    """``1/ε`` for a valid precision; ``ε ≤ 0`` is not an AA task."""
    value = Fraction(epsilon)
    if value <= 0:
        raise SolvabilityError(
            f"approximate agreement needs ε > 0, got {value}"
        )
    return 1 / value


def iterated_closure_lower_bound(
    task: Task,
    model: ComputationModel,
    max_rounds: int,
) -> int:
    """A certified round lower bound by explicit closure iteration.

    Returns the largest ``r ≤ max_rounds`` such that the ``(r-1)``-fold
    closure of the task is not solvable in zero rounds — hence, by the
    speedup theorem, the task needs at least ``r`` rounds.  Returns 0 when
    the task itself is 0-round solvable.

    This materializes each closure over the full input complex; keep the
    instances small (it is exact, not clever).
    """
    with span(
        "core/lower-bound",
        task=task.name,
        model=model.name,
        max_rounds=max_rounds,
    ) as bound_span:
        current = task
        bound = 0
        for _ in range(max_rounds):
            # One span per closure iteration: round r tests 0-round
            # solvability of the r-fold closure and, if unsolved,
            # materializes the next closure.
            with span("closure/iterate", round=bound):
                if is_solvable(current, model, 0):
                    break
                bound += 1
                current = ClosureComputer(current, model).as_task()
        bound_span.set_attribute("bound", bound)
        return bound


def aa_lower_bound_iis(n: int, epsilon: Rational) -> int:
    """Corollary 3: rounds needed for ε-AA in wait-free IIS.

    ``⌈log₃ 1/ε⌉`` for two processes, ``⌈log₂ 1/ε⌉`` for three or more.
    Tight (Hoest–Shavit; also witnessed by the algorithms of
    :mod:`repro.algorithms.approximate_agreement`).
    """
    if n < 2:
        raise SolvabilityError("approximate agreement needs at least 2 processes")
    inverse = _inverse_epsilon(epsilon)
    if n == 2:
        return ceil_log(3, inverse)
    return ceil_log(2, inverse)


def aa_lower_bound_iis_tas(n: int, epsilon: Rational) -> int:
    """Theorem 3: rounds needed for ε-AA in wait-free IIS + test&set.

    For ``n ≥ 3`` the bound is the same ``⌈log₂ 1/ε⌉`` as without the
    object — test&set does not accelerate approximate agreement.  For
    ``n = 2``, consensus (hence AA) is solvable in a single round (Fig. 4).
    """
    if n < 2:
        raise SolvabilityError("approximate agreement needs at least 2 processes")
    inverse = _inverse_epsilon(epsilon)
    if n == 2:
        return 1 if inverse > 1 else 0
    return ceil_log(2, inverse)


def aa_lower_bound_iis_bc(n: int, epsilon: Rational) -> int:
    """Theorem 4: ε-AA with an ID-called binary consensus object, ``n ≥ 3``.

    ``min{⌈log₂ 1/ε⌉, ⌈log₂ n⌉ − 1}``: each β-closure step doubles ε but
    halves the participants, so the recursion bottoms out either when ε
    reaches 1 or when too few processes remain.
    """
    if n < 3:
        raise SolvabilityError("Theorem 4 is stated for n ≥ 3 processes")
    by_epsilon = ceil_log(2, _inverse_epsilon(epsilon))
    by_processes = ceil_log(2, n) - 1
    return min(by_epsilon, by_processes)
