"""Unit tests for the consensus task family."""


from repro.tasks import (
    binary_consensus_task,
    multivalued_consensus_task,
    relaxed_consensus_task,
)
from repro.tasks.inputs import input_simplex
from tests.properties import name_leaks, outputs_outside


class TestBinaryConsensus:
    def test_output_complex_has_two_facets(self):
        task = binary_consensus_task([1, 2, 3])
        assert len(task.output_complex.facets) == 2

    def test_mixed_inputs_allow_both_decisions(self):
        task = binary_consensus_task([1, 2, 3])
        sigma = input_simplex({1: 0, 2: 1, 3: 0})
        facets = task.delta(sigma).facets
        assert facets == frozenset(
            {
                input_simplex({1: 0, 2: 0, 3: 0}),
                input_simplex({1: 1, 2: 1, 3: 1}),
            }
        )

    def test_uniform_inputs_force_decision(self):
        task = binary_consensus_task([1, 2, 3])
        sigma = input_simplex({1: 1, 2: 1, 3: 1})
        assert task.delta(sigma).facets == frozenset({sigma})

    def test_solo_process_keeps_input(self):
        task = binary_consensus_task([1, 2])
        sigma = input_simplex({2: 0})
        assert task.delta(sigma).facets == frozenset({sigma})

    def test_validates(self):
        task = binary_consensus_task([1, 2, 3])
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == []


class TestMultivaluedConsensus:
    def test_decisions_are_participant_inputs(self):
        task = multivalued_consensus_task([1, 2], ["x", "y", "z"])
        sigma = input_simplex({1: "x", 2: "z"})
        decided = {
            facet.value_of(1) for facet in task.delta(sigma).facets
        }
        assert decided == {"x", "z"}

    def test_agreement_in_every_output(self):
        task = multivalued_consensus_task([1, 2, 3], ["x", "y"])
        for sigma in task.input_complex.simplices_of_dim(2):
            for facet in task.delta(sigma).facets:
                values = {v.value for v in facet.vertices}
                assert len(values) == 1

    def test_validates(self):
        task = multivalued_consensus_task([1, 2], ["x", "y", "z"])
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == []


class TestRelaxedConsensus:
    def test_three_participants_must_agree(self):
        task = relaxed_consensus_task([1, 2, 3])
        sigma = input_simplex({1: 0, 2: 1, 3: 1})
        for facet in task.delta(sigma).facets:
            assert len({v.value for v in facet.vertices}) == 1

    def test_two_participants_may_disagree(self):
        task = relaxed_consensus_task([1, 2, 3])
        sigma = input_simplex({1: 0, 2: 1})
        legal = task.delta(sigma).facets
        assert input_simplex({1: 0, 2: 1}) in legal
        assert input_simplex({1: 1, 2: 0}) in legal
        assert input_simplex({1: 0, 2: 0}) in legal
        assert len(legal) == 4

    def test_validity_still_enforced(self):
        task = relaxed_consensus_task([1, 2, 3])
        sigma = input_simplex({1: 0, 2: 0})
        # Both inputs are 0: outputs must be 0 even for two participants.
        assert task.delta(sigma).facets == frozenset(
            {input_simplex({1: 0, 2: 0})}
        )

    def test_solo_keeps_input(self):
        task = relaxed_consensus_task([1, 2, 3])
        sigma = input_simplex({3: 1})
        assert task.delta(sigma).facets == frozenset({sigma})

    def test_output_complex_contains_disagreeing_edges(self):
        task = relaxed_consensus_task([1, 2, 3])
        assert input_simplex({1: 0, 3: 1}) in task.output_complex

    def test_output_complex_has_no_disagreeing_triangles(self):
        task = relaxed_consensus_task([1, 2, 3])
        assert input_simplex({1: 0, 2: 1, 3: 1}) not in task.output_complex

    def test_any_consensus_output_is_relaxed_legal(self):
        strict = binary_consensus_task([1, 2, 3])
        relaxed = relaxed_consensus_task([1, 2, 3])
        for sigma in strict.input_complex:
            assert (
                strict.delta(sigma).simplices
                <= relaxed.delta(sigma).simplices
            )

    def test_validates(self):
        task = relaxed_consensus_task([1, 2, 3])
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == []
