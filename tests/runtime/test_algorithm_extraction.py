"""Unit tests for symbolic decision-map extraction from algorithms."""

from fractions import Fraction


from repro.algorithms import HalvingAA, TwoProcessConsensusTAS, TwoProcessThirdsAA
from repro.core.solvability import DecisionMap
from repro.models import ProtocolOperator
from repro.runtime import extract_decision_map
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
)


def F(num, den=1):
    return Fraction(num, den)


class TestRegisterOnlyExtraction:
    def test_extracted_map_solves_the_task(self, iis):
        eps = F(1, 2)
        task = approximate_agreement_task([1, 2, 3], eps, 2)
        algorithm = HalvingAA(eps)
        decision = extract_decision_map(
            algorithm, iis, task.input_complex
        )
        assert isinstance(decision, DecisionMap)
        assert decision.rounds == algorithm.rounds
        operator = ProtocolOperator(iis)
        for sigma in task.input_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, algorithm.rounds).facets:
                assert decision.output_simplex(facet) in allowed

    def test_two_process_thirds_extraction(self, iis):
        eps = F(1, 3)
        task = approximate_agreement_task([1, 2], eps, 3)
        algorithm = TwoProcessThirdsAA(eps)
        assert algorithm.rounds == 1
        decision = extract_decision_map(algorithm, iis, task.input_complex)
        operator = ProtocolOperator(iis)
        for sigma in task.input_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 1).facets:
                assert decision.output_simplex(facet) in allowed

    def test_extraction_covers_all_protocol_vertices(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        algorithm = TwoProcessThirdsAA(F(1, 2))
        decision = extract_decision_map(algorithm, iis, task.input_complex)
        operator = ProtocolOperator(iis)
        for sigma in task.input_complex:
            for vertex in operator.of_simplex(sigma, algorithm.rounds).vertices:
                assert vertex in decision.assignment


class TestAugmentedExtraction:
    def test_tas_consensus_extraction(self, iis_tas):
        task = binary_consensus_task([1, 2])
        algorithm = TwoProcessConsensusTAS()
        decision = extract_decision_map(
            algorithm, iis_tas, task.input_complex
        )
        operator = ProtocolOperator(iis_tas)
        for sigma in task.input_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 1).facets:
                assert decision.output_simplex(facet) in allowed

    def test_extraction_consistent_with_executor(self, iis_tas):
        # The symbolic map and the operational executor must agree on the
        # synchronous execution.
        from repro.objects import TestAndSetBox
        from repro.runtime import FullSyncAdversary, IteratedExecutor

        task = binary_consensus_task([1, 2])
        algorithm = TwoProcessConsensusTAS()
        decision = extract_decision_map(
            algorithm, iis_tas, task.input_complex
        )
        executor = IteratedExecutor(box=TestAndSetBox())

        class FirstOption(FullSyncAdversary):
            def choose_assignment(self, round_index, schedule, options):
                return options[0]

        inputs = {1: 0, 2: 1}
        result = executor.run(algorithm, inputs, FirstOption())
        # Reconstruct the corresponding protocol vertex for process 1.
        from repro.topology import Vertex, View

        box_bit = result.box_outputs[0][1]
        view = View({1: 0, 2: 1})
        vertex = Vertex(1, (box_bit, view))
        assert decision.assignment[vertex].value == result.decisions[1]
