"""Integration: Claims 1–3 and Corollary 3 (E7, E8, E9, E14).

The closure of ε-approximate agreement is (3ε)-AA for two processes and
(2ε)-AA (liberal) for three — the two identities from which Corollary 3's
⌈log₃ 1/ε⌉ and ⌈log₂ 1/ε⌉ lower bounds follow.  Tightness comes from the
algorithms, whose decision maps we extract and check combinatorially.
"""

from fractions import Fraction

import pytest

from repro.algorithms import HalvingAA, TwoProcessThirdsAA
from repro.core import (
    ClosureComputer,
    aa_lower_bound_iis,
    is_solvable,
)
from repro.models import ProtocolOperator
from repro.runtime import extract_decision_map
from repro.tasks import (
    approximate_agreement_task,
    liberal_approximate_agreement_task,
)
from repro.tasks.inputs import input_simplex


def F(num, den=1):
    return Fraction(num, den)


class TestClaim1:
    @pytest.mark.parametrize("eps, m", [(F(1, 2), 2), (F(3, 4), 4)])
    def test_aa_not_zero_round_solvable(self, iis, eps, m):
        task = approximate_agreement_task([1, 2], eps, m)
        assert not is_solvable(task, iis, 0)

    def test_liberal_aa_not_zero_round_solvable_three_procs(self, iis):
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        assert not is_solvable(task, iis, 0)

    def test_liberal_aa_zero_round_gap_for_two_procs(self, iis):
        # For exactly two processes, the liberal task IS 0-round solvable
        # (outputs need only stay in range) — the reason Theorem 4 loses
        # an additive 1.
        task = liberal_approximate_agreement_task([1, 2], F(1, 2), 2)
        assert is_solvable(task, iis, 0)


class TestClaim2:
    def test_closure_is_3eps_full_sweep(self, iis):
        m, eps = 6, F(1, 6)
        task = approximate_agreement_task([1, 2], eps, m)
        target = approximate_agreement_task([1, 2], 3 * eps, m)
        computer = ClosureComputer(task, iis)
        for sigma in task.input_complex:
            assert (
                computer.delta_prime(sigma).simplices
                == target.delta(sigma).simplices
            ), f"Claim 2 fails at {sigma.as_mapping()}"

    def test_eq2_witness_map(self, iis):
        # The constructive direction: for τ with gap exactly 3ε the local
        # task is solvable — Eq. (2) is the witness, and the engine finds
        # one.
        m, eps = 6, F(1, 6)
        task = approximate_agreement_task([1, 2], eps, m)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1)})
        assert computer.contains(
            sigma, input_simplex({1: F(1, 6), 2: F(4, 6)})
        )
        assert not computer.contains(
            sigma, input_simplex({1: F(0), 2: F(4, 6)})
        )


class TestClaim3:
    def test_closure_is_liberal_2eps_representative_sweep(self, iis):
        m, eps = 4, F(1, 4)
        task = liberal_approximate_agreement_task([1, 2, 3], eps, m)
        target = liberal_approximate_agreement_task([1, 2, 3], 2 * eps, m)
        computer = ClosureComputer(task, iis)
        # All 2-dimensional windows (the cache collapses translates).
        for sigma in task.input_complex.simplices_of_dim(2):
            assert (
                computer.delta_prime(sigma).simplices
                == target.delta(sigma).simplices
            ), f"Claim 3 fails at {sigma.as_mapping()}"

    def test_closure_on_faces_matches_liberal_semantics(self, iis):
        m, eps = 4, F(1, 4)
        task = liberal_approximate_agreement_task([1, 2, 3], eps, m)
        target = liberal_approximate_agreement_task([1, 2, 3], 2 * eps, m)
        computer = ClosureComputer(task, iis)
        for sigma in [
            input_simplex({1: F(0), 2: F(1)}),
            input_simplex({2: F(1, 4), 3: F(3, 4)}),
            input_simplex({3: F(1, 2)}),
        ]:
            assert (
                computer.delta_prime(sigma).simplices
                == target.delta(sigma).simplices
            )

    def test_eq3_map_realizes_the_closure(self, iis):
        # Eq. (3) applied once must solve ε-AA from inputs ≤ 2ε apart:
        # extract the 1-round halving map and check it on a 2ε window.
        eps = F(1, 4)
        algorithm = HalvingAA(eps, rounds=1)
        task = approximate_agreement_task([1, 2, 3], eps, 4)
        sub_inputs = [
            sigma
            for sigma in task.input_complex
            if all(F(1, 4) <= v.value <= F(3, 4) for v in sigma.vertices)
        ]
        from repro.topology import SimplicialComplex

        sub_complex = SimplicialComplex(
            [s for s in sub_inputs if s.dim == 2]
        )
        decision = extract_decision_map(algorithm, iis, sub_complex)
        operator = ProtocolOperator(iis)
        for sigma in sub_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 1).facets:
                assert decision.output_simplex(facet) in allowed


class TestCorollary3:
    @pytest.mark.parametrize(
        "n, eps, expected",
        [
            (2, F(1, 3), 1),
            (2, F(1, 9), 2),
            (2, F(1, 4), 2),
            (3, F(1, 2), 1),
            (3, F(1, 4), 2),
            (3, F(1, 8), 3),
        ],
    )
    def test_closed_form(self, n, eps, expected):
        assert aa_lower_bound_iis(n, eps) == expected

    def test_tightness_constructive_two_procs(self, iis):
        # The thirds algorithm meets the bound: its extracted map solves
        # ε-AA in exactly ⌈log₃ 1/ε⌉ rounds.
        eps = F(1, 3)
        task = approximate_agreement_task([1, 2], eps, 3)
        algorithm = TwoProcessThirdsAA(eps)
        assert algorithm.rounds == aa_lower_bound_iis(2, eps) == 1
        decision = extract_decision_map(algorithm, iis, task.input_complex)
        operator = ProtocolOperator(iis)
        for sigma in task.input_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 1).facets:
                assert decision.output_simplex(facet) in allowed

    def test_lower_bound_binds_one_round_down(self, iis):
        # ε = 1/4, n = 2: the bound says 2 rounds; 1 round must fail.
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        assert not is_solvable(task, iis, 1)

    def test_lower_bound_binds_three_procs(self, iis):
        # ε = 1/4, n = 3: 2 rounds needed; 1 round must fail.  Restrict to
        # the wide-window inputs to keep the refutation fast — failure on a
        # restriction refutes the full task too.
        task = approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        wide = [
            sigma
            for sigma in task.input_complex
            if sigma.dim == 2
            and max(v.value for v in sigma.vertices)
            - min(v.value for v in sigma.vertices)
            == 1
        ]
        wide += [s for sigma in wide for s in sigma.proper_faces()]
        assert not is_solvable(task, iis, 1, input_simplices=wide)


class TestTwoRoundTightnessThreeProcs:
    def test_halving_two_rounds_solve_quarter_aa(self, iis):
        # Corollary 3's upper bound for n = 3, ε = 1/4: the extracted
        # 2-round halving map solves the task on representative windows
        # (one σ per distinct (min, max) window; Δ and the protocol are
        # translation-equivariant across windows of equal width).
        from repro.algorithms import HalvingAA
        from repro.models import ProtocolOperator
        from repro.runtime import extract_decision_map
        from repro.topology import SimplicialComplex

        task = approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        algorithm = HalvingAA(F(1, 4))
        assert algorithm.rounds == 2
        seen = set()
        chosen = []
        for sigma in task.input_complex.simplices_of_dim(2):
            values = sorted(v.value for v in sigma.vertices)
            window = (values[0], values[-1], values[1])
            if window in seen:
                continue
            seen.add(window)
            chosen.append(sigma)
        sub = SimplicialComplex(chosen[:12])
        decision = extract_decision_map(algorithm, iis, sub)
        operator = ProtocolOperator(iis)
        for sigma in sub:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 2).facets:
                assert decision.output_simplex(facet) in allowed


class TestClaim3AcrossModels:
    def test_closure_identity_holds_in_weaker_models_too(
        self, snapshot_model, collect_model
    ):
        # The paper proves Claim 3 in IIS (the strongest model, so the
        # lower bound transfers downward a fortiori).  Computing the
        # closure directly in the weaker models shows the identity itself
        # persists: the extra snapshot/collect executions add constraints
        # to the local tasks (forcing Δ' ⊆ Δ'_IIS = 2ε), and Eq. (3)'s
        # witness map only needs comparable-or-self views, so 2ε-sets stay
        # inside.  Hence CL(liberal ε-AA) = liberal 2ε-AA in all three
        # register models.
        m, eps = 4, F(1, 4)
        task = liberal_approximate_agreement_task([1, 2, 3], eps, m)
        target = liberal_approximate_agreement_task([1, 2, 3], 2 * eps, m)
        sigma = input_simplex({1: F(0), 2: F(1, 2), 3: F(1)})
        for model in (snapshot_model, collect_model):
            computer = ClosureComputer(task, model)
            assert (
                computer.delta_prime(sigma).simplices
                == target.delta(sigma).simplices
            ), f"Claim 3 identity fails in {model.name}"

    def test_consensus_fixed_point_in_weaker_models_too(
        self, snapshot_model, collect_model
    ):
        # Corollary 1's engine also runs unchanged in snapshot and collect.
        from repro.core import impossibility_from_fixed_point
        from repro.tasks import binary_consensus_task

        for model in (snapshot_model, collect_model):
            report = impossibility_from_fixed_point(
                binary_consensus_task([1, 2]), model
            )
            assert report.unsolvable, model.name
