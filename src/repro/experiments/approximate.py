"""Experiments E7–E10, E12, E14 — approximate agreement closures and bounds."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.algorithms import HalvingAA, TwoProcessThirdsAA
from repro.core import (
    ClosureComputer,
    aa_lower_bound_iis,
    aa_lower_bound_iis_bc,
    aa_lower_bound_iis_tas,
    is_solvable,
    iterated_closure_lower_bound,
)
from repro.models import ImmediateSnapshotModel
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
    majority_side,
)
from repro.tasks import (
    approximate_agreement_task,
    liberal_approximate_agreement_task,
)
from repro.tasks.inputs import input_simplex
from repro.tasks.task import Task
from repro.topology.simplex import Simplex

__all__ = [
    "reproduce_claim1",
    "reproduce_claim2",
    "reproduce_claim3",
    "reproduce_corollary3",
    "reproduce_theorem3",
    "reproduce_theorem4",
]

F = Fraction

#: The β function used for Theorem 4's experiment (5 declared processes).
THEOREM4_BETA = {1: 0, 2: 1, 3: 0, 4: 0, 5: 1}


def _closure_identity(
    computer: ClosureComputer,
    target: Task,
    simplices: Iterable[Simplex],
    per_window: bool = False,
) -> tuple[int, int]:
    """Check ``Δ'(σ) = target.Δ(σ)`` for each ``σ``: ``(checked, mismatches)``.

    With ``per_window`` only the first ``σ`` of each ``(min, max)``
    input-value window is checked.
    """
    checked = mismatches = 0
    seen_windows: set[tuple[object, object]] = set()
    for sigma in simplices:
        if per_window:
            values = sorted(v.value for v in sigma.vertices)
            window = (values[0], values[-1])
            if window in seen_windows:
                continue
            seen_windows.add(window)
        checked += 1
        if (
            computer.delta_prime(sigma).simplices
            != target.delta(sigma).simplices
        ):
            mismatches += 1
    return checked, mismatches


def reproduce_claim1() -> dict[str, bool]:
    """E14 — Claim 1: zero-round (un)solvability landscape of ε-AA."""
    iis = ImmediateSnapshotModel()
    return {
        "strict_2": is_solvable(
            approximate_agreement_task([1, 2], F(1, 2), 2), iis, 0
        ),
        "strict_3": is_solvable(
            approximate_agreement_task([1, 2, 3], F(1, 2), 2), iis, 0
        ),
        "liberal_3": is_solvable(
            liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 2), iis, 0
        ),
        "liberal_2": is_solvable(
            liberal_approximate_agreement_task([1, 2], F(1, 2), 2), iis, 0
        ),
        "eps_1": is_solvable(
            approximate_agreement_task([1, 2], 1, 1), iis, 0
        ),
    }


def reproduce_claim2(m: int = 6, eps: Fraction = F(1, 6)) -> dict[str, object]:
    """E7 — Claim 2: CL_IIS(ε-AA) = (3ε)-AA for two processes,
    exhaustively over the grid."""
    iis = ImmediateSnapshotModel()
    task = approximate_agreement_task([1, 2], eps, m)
    target = approximate_agreement_task([1, 2], 3 * eps, m)
    computer = ClosureComputer(task, iis)
    checked, mismatches = _closure_identity(
        computer, target, task.input_complex
    )
    return {"checked": checked, "mismatches": mismatches, "eps": eps, "m": m}


def reproduce_claim3(m: int = 4, eps: Fraction = F(1, 4)) -> dict[str, object]:
    """E8 — Claim 3: CL_IIS(liberal ε-AA) = liberal (2ε)-AA for n = 3,
    over every 2-dimensional input simplex plus representative faces."""
    iis = ImmediateSnapshotModel()
    task = liberal_approximate_agreement_task([1, 2, 3], eps, m)
    target = liberal_approximate_agreement_task([1, 2, 3], 2 * eps, m)
    computer = ClosureComputer(task, iis)
    faces = [
        input_simplex({1: F(0), 2: F(1)}),
        input_simplex({2: F(1, 4), 3: F(1, 2)}),
        input_simplex({1: F(1, 2)}),
    ]
    checked, mismatches = _closure_identity(
        computer, target, task.input_complex.simplices_of_dim(2) + faces
    )
    return {"checked": checked, "mismatches": mismatches, "eps": eps, "m": m}


def reproduce_corollary3() -> dict[str, object]:
    """E9 — Corollary 3: lower bounds, generic iteration, and tightness."""
    iis = ImmediateSnapshotModel()
    table: list[tuple[int, Fraction, int, int, int]] = []
    for n in (2, 3):
        for k in (1, 2, 3, 4):
            eps = F(1, 2**k) if n >= 3 else F(1, 3**k)
            lower = aa_lower_bound_iis(n, eps)
            algorithm = TwoProcessThirdsAA(eps) if n == 2 else HalvingAA(eps)
            table.append((n, eps, k, lower, algorithm.rounds))
    generic = iterated_closure_lower_bound(
        approximate_agreement_task([1, 2], F(1, 4), 4), iis, max_rounds=4
    )
    binding = not is_solvable(
        approximate_agreement_task([1, 2], F(1, 4), 4), iis, 1
    )
    return {"table": table, "generic_quarter": generic, "binding": binding}


def reproduce_theorem3(
    m: int = 4, eps: Fraction = F(1, 4)
) -> dict[str, object]:
    """E10 — Theorem 3 / Claim 4: the IIS+test&set closure still doubles ε
    and the round bounds coincide with plain IIS for n ≥ 3."""
    model = AugmentedModel(TestAndSetBox())
    task = liberal_approximate_agreement_task([1, 2, 3], eps, m)
    target = liberal_approximate_agreement_task([1, 2, 3], 2 * eps, m)
    computer = ClosureComputer(task, model)
    checked, mismatches = _closure_identity(
        computer,
        target,
        task.input_complex.simplices_of_dim(2),
        per_window=True,
    )

    bounds = [
        (n, e, aa_lower_bound_iis(n, e), aa_lower_bound_iis_tas(n, e))
        for n in (3, 5)
        for e in (F(1, 2), F(1, 4), F(1, 16))
    ]
    n2 = (
        aa_lower_bound_iis(2, F(1, 16)),
        aa_lower_bound_iis_tas(2, F(1, 16)),
        is_solvable(
            approximate_agreement_task([1, 2], F(1, 4), 4), model, 1
        ),
    )
    return {
        "checked": checked,
        "mismatches": mismatches,
        "bounds": bounds,
        "n2": n2,
    }


def reproduce_theorem4(
    m: int = 4, eps: Fraction = F(1, 4)
) -> dict[str, object]:
    """E12 — Theorem 4 / Claims 5–6: the β-closure collapses on the
    majority call side, escapes on mixed sides, and the closed form holds."""
    from repro.core import ceil_log

    beta = dict(THEOREM4_BETA)
    model = AugmentedModel(BinaryConsensusBox(), beta_input_function(beta))
    side = sorted(majority_side(beta, beta))
    task = liberal_approximate_agreement_task(side, eps, m)
    target = liberal_approximate_agreement_task(side, 2 * eps, m)
    computer = ClosureComputer(task, model)
    checked, mismatches = _closure_identity(
        computer,
        target,
        task.input_complex.simplices_of_dim(2),
        per_window=True,
    )

    mixed = [1, 2, 5]
    mixed_task = liberal_approximate_agreement_task(mixed, eps, m)
    mixed_target = liberal_approximate_agreement_task(mixed, 2 * eps, m)
    mixed_computer = ClosureComputer(mixed_task, model)
    sigma = input_simplex({1: F(0), 2: F(1, 2), 5: F(1)})
    mixed_escapes = (
        mixed_computer.delta_prime(sigma).simplices
        > mixed_target.delta(sigma).simplices
    )

    bounds = [
        (n, e, aa_lower_bound_iis_bc(n, e))
        for n in (3, 8, 16, 64)
        for e in (F(1, 8), F(1, 64))
    ]
    expected = [
        (n, e, min(ceil_log(2, 1 / e), ceil_log(2, n) - 1))
        for n in (3, 8, 16, 64)
        for e in (F(1, 8), F(1, 64))
    ]
    return {
        "majority_side": side,
        "checked": checked,
        "mismatches": mismatches,
        "mixed_escapes": mixed_escapes,
        "bounds": bounds,
        "expected_bounds": expected,
    }
