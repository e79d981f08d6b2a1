"""Unit tests for the constructive speedup theorem (Theorems 1–2)."""

from fractions import Fraction

import pytest

from repro.core import (
    find_decision_map,
    speedup_decision_map,
    verify_speedup_theorem,
)
from repro.core.solvability import DecisionMap
from repro.errors import SolvabilityError
from repro.models import ProtocolOperator
from repro.tasks import approximate_agreement_task, binary_consensus_task


def F(num, den=1):
    return Fraction(num, den)


class TestConstruction:
    def test_speedup_map_defined_on_previous_round(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        decision = find_decision_map(task, iis, 1)
        faster = speedup_decision_map(task, iis, decision)
        assert faster.rounds == 0
        operator = ProtocolOperator(iis)
        for sigma in task.input_complex:
            for vertex in operator.of_simplex(sigma, 0).vertices:
                assert vertex in faster.assignment

    def test_zero_round_map_rejected(self, iis):
        task = approximate_agreement_task([1, 2], 1, 1)
        decision = find_decision_map(task, iis, 0)
        with pytest.raises(SolvabilityError):
            speedup_decision_map(task, iis, decision)

    def test_mismatched_map_rejected(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        bogus = DecisionMap({}, rounds=1)
        with pytest.raises(SolvabilityError):
            speedup_decision_map(task, iis, bogus)

    def test_solo_evaluation(self, iis):
        # f'(i, V) must equal f at the solo extension of (i, V).
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        decision = find_decision_map(task, iis, 1)
        faster = speedup_decision_map(task, iis, decision)
        for vertex, image in faster.assignment.items():
            solo = iis.solo_vertex(vertex)
            assert decision.assignment[solo] == image


class TestVerification:
    def test_theorem1_on_one_round_aa(self, iis):
        # ε = 1/2 AA (2 procs) is 1-round solvable; its closure (3/2·ε ≥ 1,
        # i.e. trivial AA) must be 0-round solvable via f'.
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        decision = find_decision_map(task, iis, 1)
        report = verify_speedup_theorem(task, iis, decision)
        assert report.original_valid
        assert report.sped_up_valid
        assert report.holds
        assert report.violations == []

    def test_theorem1_three_processes(self, iis):
        task = approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        decision = find_decision_map(task, iis, 1)
        report = verify_speedup_theorem(task, iis, decision)
        assert report.holds

    def test_theorem2_with_test_and_set(self, iis_tas):
        # 2-process consensus is 1-round solvable with test&set; the
        # extended speedup construction must give a 0-round closure solver.
        task = binary_consensus_task([1, 2])
        decision = find_decision_map(task, iis_tas, 1)
        assert decision is not None
        report = verify_speedup_theorem(task, iis_tas, decision)
        assert report.holds

    def test_invalid_original_map_reported(self, iis):
        # A constant map does not solve AA on wide inputs; the report
        # must flag it rather than silently "verifying" the theorem.
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        assignment = {}
        from repro.topology import Vertex

        for sigma in task.input_complex:
            for vertex in operator.of_simplex(sigma, 1).vertices:
                assignment[vertex] = Vertex(vertex.color, F(0))
        bogus = DecisionMap(assignment, rounds=1)
        report = verify_speedup_theorem(task, iis, bogus)
        assert not report.original_valid
