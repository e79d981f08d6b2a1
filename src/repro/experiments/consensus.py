"""Experiments E2, E3, E6 — closure machinery and consensus impossibility."""

from __future__ import annotations

from fractions import Fraction

from repro.analysis import figure6_simplices
from repro.core import (
    ClosureComputer,
    impossibility_from_fixed_point,
    is_solvable,
    local_task,
)
from repro.core.solvability import build_solvability_problem
from repro.models import ImmediateSnapshotModel, ProtocolOperator
from repro.objects import AugmentedModel, TestAndSetBox
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    relaxed_consensus_task,
)
from repro.tasks.inputs import input_simplex
from repro.topology import Simplex

__all__ = [
    "reproduce_closure_machinery",
    "reproduce_corollary1",
    "reproduce_corollary2",
]


def reproduce_closure_machinery() -> dict[str, object]:
    """E2 — the worked closure instance of Figs. 1–3 on ε-AA.

    Builds a local task for a non-Δ output set, witnesses its one-round
    solvability, and contrasts closure membership for a set too spread even
    for the closure.
    """
    F = Fraction
    iis = ImmediateSnapshotModel()
    task = approximate_agreement_task([1, 2, 3], F(1, 4), 4)
    sigma = input_simplex({1: F(0), 2: F(1, 2), 3: F(1)})
    tau_in = input_simplex({1: F(1, 4), 2: F(1, 2), 3: F(3, 4)})
    tau_out = input_simplex({1: F(0), 2: F(1, 2), 3: F(1)})

    operator = ProtocolOperator(iis)
    the_local = local_task(task, sigma, tau_in)
    problem = build_solvability_problem(
        list(the_local.input_complex), the_local.delta, operator, 1
    )
    witness = problem.solve()

    computer = ClosureComputer(task, iis)
    return {
        "tau_in_delta": tau_in in task.delta(sigma),
        "witness_found": witness is not None,
        "tau_in_closure": computer.contains(sigma, tau_in),
        "tau_out_closure": computer.contains(sigma, tau_out),
        "closure_size": len(computer.legal_outputs(sigma)),
        "delta_size": len(task.delta(sigma).facets),
    }


def reproduce_corollary1() -> dict[int, dict[str, bool]]:
    """E3 — Corollary 1: consensus is a fixed point of wait-free IIS,
    hence unsolvable (Lemma 1); cross-checked by brute force at t = 1."""
    iis = ImmediateSnapshotModel()
    outcomes: dict[int, dict[str, bool]] = {}
    for n in (2, 3):
        task = binary_consensus_task(list(range(1, n + 1)))
        report = impossibility_from_fixed_point(task, iis)
        outcomes[n] = {
            "fixed_point": report.fixed_point,
            "zero_round": report.zero_round_solvable,
            "unsolvable": report.unsolvable,
            "brute_force_1_round": is_solvable(task, iis, 1),
        }
    return outcomes


def reproduce_corollary2() -> dict[str, bool]:
    """E6 — Corollary 2 + Fig. 6: consensus with test&set for n > 2.

    The relaxed task is a fixed point of IIS+test&set (so unsolvable); the
    ρ-simplices of Fig. 6 exist; the two-process contrast is solvable.
    """
    model = AugmentedModel(TestAndSetBox())
    relaxed = relaxed_consensus_task([1, 2, 3])
    report = impossibility_from_fixed_point(relaxed, model)

    tau_values = {1: 0, 2: 1, 3: 1}
    rho_ijk, rho_jik = figure6_simplices(tau_values, 1, 2, 3)
    complex_ = model.one_round_complex(Simplex(tau_values.items()))

    return {
        "fixed_point": report.fixed_point,
        "zero_round": report.zero_round_solvable,
        "unsolvable": report.unsolvable,
        "rho_ijk_exists": rho_ijk in complex_,
        "rho_jik_exists": rho_jik in complex_,
        "two_proc_solvable": is_solvable(
            binary_consensus_task([1, 2]), model, 1
        ),
        "three_proc_one_round": is_solvable(
            binary_consensus_task([1, 2, 3]), model, 1
        ),
    }
