"""Unit tests for fixed points and Lemma 1's impossibility pipeline."""

from fractions import Fraction

from repro.core import impossibility_from_fixed_point
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    relaxed_consensus_task,
)
from repro.tasks.inputs import input_simplex


def F(num, den=1):
    return Fraction(num, den)


class TestFixedPointDetection:
    def test_consensus_is_fixed_point_of_iis_two_procs(self, iis):
        report = impossibility_from_fixed_point(
            binary_consensus_task([1, 2]), iis
        )
        assert report.fixed_point
        assert report.counterexamples == []

    def test_consensus_is_fixed_point_of_iis_three_procs(self, iis):
        task = binary_consensus_task([1, 2, 3])
        # Checking the mixed-input facets is the interesting part; uniform
        # ones are trivially fixed.
        mixed = [
            sigma
            for sigma in task.input_complex.simplices_of_dim(2)
            if len({v.value for v in sigma.vertices}) == 2
        ]
        report = impossibility_from_fixed_point(
            task, iis, input_simplices=mixed
        )
        assert report.fixed_point

    def test_aa_is_not_fixed_point(self, iis):
        # The whole point of Section 5: ε-AA closes to (3ε)-AA, not itself.
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1)})
        report = impossibility_from_fixed_point(
            task, iis, input_simplices=[sigma]
        )
        assert not report.fixed_point
        assert report.counterexamples == [sigma]

    def test_relaxed_consensus_fixed_point_of_tas(self, iis_tas):
        # Corollary 2's engine.
        task = relaxed_consensus_task([1, 2, 3])
        mixed = [
            sigma
            for sigma in task.input_complex.simplices_of_dim(2)
            if len({v.value for v in sigma.vertices}) == 2
        ]
        report = impossibility_from_fixed_point(
            task, iis_tas, input_simplices=mixed
        )
        assert report.fixed_point

    def test_plain_consensus_not_fixed_point_of_tas(self, iis_tas):
        # Two-process faces become solvable with test&set, so the closure
        # is strictly bigger than Δ on 1-dimensional simplices.
        task = binary_consensus_task([1, 2, 3])
        edge = input_simplex({1: 0, 2: 1})
        report = impossibility_from_fixed_point(
            task, iis_tas, input_simplices=[edge]
        )
        assert report.counterexamples == [edge]


class TestImpossibilityPipeline:
    def test_corollary1_two_processes(self, iis):
        report = impossibility_from_fixed_point(
            binary_consensus_task([1, 2]), iis
        )
        assert report.fixed_point
        assert not report.zero_round_solvable
        assert report.unsolvable
        assert "unsolvable" in report.summary()

    def test_corollary2_three_processes(self, iis_tas):
        report = impossibility_from_fixed_point(
            relaxed_consensus_task([1, 2, 3]), iis_tas
        )
        assert report.unsolvable

    def test_solvable_task_not_flagged(self, iis):
        task = approximate_agreement_task([1, 2], 1, 1)
        report = impossibility_from_fixed_point(task, iis)
        assert report.zero_round_solvable
        assert not report.unsolvable
        assert "zero rounds" in report.summary()

    def test_non_fixed_point_reported_with_counterexamples(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1)})
        report = impossibility_from_fixed_point(
            task, iis, input_simplices=[sigma]
        )
        assert not report.fixed_point
        assert report.counterexamples == [sigma]
        assert not report.unsolvable
        assert "NOT a fixed point" in report.summary()
