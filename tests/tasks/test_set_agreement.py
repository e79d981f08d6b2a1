"""Unit tests for k-set agreement."""

import pytest

from repro.errors import TaskSpecificationError
from repro.tasks import binary_consensus_task, set_agreement_task
from repro.tasks.inputs import input_simplex
from tests.properties import name_leaks, outputs_outside


class TestSetAgreement:
    def test_k1_equals_consensus_specification(self):
        kset = set_agreement_task([1, 2], [0, 1], 1)
        consensus = binary_consensus_task([1, 2])
        for sigma in consensus.input_complex:
            assert (
                kset.delta(sigma).simplices
                == consensus.delta(sigma).simplices
            )

    def test_at_most_k_distinct_outputs(self):
        task = set_agreement_task([1, 2, 3], ["a", "b", "c"], 2)
        sigma = input_simplex({1: "a", 2: "b", 3: "c"})
        for facet in task.delta(sigma).facets:
            assert len({v.value for v in facet.vertices}) <= 2

    def test_outputs_are_inputs(self):
        task = set_agreement_task([1, 2, 3], ["a", "b", "c"], 2)
        sigma = input_simplex({1: "a", 2: "a", 3: "b"})
        for facet in task.delta(sigma).facets:
            assert {v.value for v in facet.vertices} <= {"a", "b"}

    def test_k_equal_n_still_restricts_to_inputs(self):
        task = set_agreement_task([1, 2], ["a", "b"], 2)
        sigma = input_simplex({1: "a", 2: "a"})
        assert task.delta(sigma).facets == frozenset(
            {input_simplex({1: "a", 2: "a"})}
        )

    def test_invalid_k(self):
        with pytest.raises(TaskSpecificationError):
            set_agreement_task([1, 2], [0, 1], 0)

    def test_output_complex_excludes_too_diverse(self):
        task = set_agreement_task([1, 2, 3], ["a", "b", "c"], 2)
        assert (
            input_simplex({1: "a", 2: "b", 3: "c"})
            not in task.output_complex
        )

    def test_validates(self):
        task = set_agreement_task([1, 2, 3], ["a", "b"], 2)
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == []
