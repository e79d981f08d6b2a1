"""Unit tests for the Task triple and its well-formedness helpers."""

import pytest

from repro.errors import TaskSpecificationError
from repro.tasks import Task, binary_consensus_task
from repro.tasks.inputs import binary_input_complex, full_input_complex, input_simplex
from repro.topology import Simplex, SimplicialComplex
from tests.properties import monotonicity_breaks, name_leaks, outputs_outside


class TestInputBuilders:
    def test_full_input_complex_facet_count(self):
        complex_ = full_input_complex([1, 2], ["a", "b", "c"])
        assert len(complex_.facets) == 9
        assert complex_.dim == 1

    def test_binary_input_complex(self):
        complex_ = binary_input_complex([1, 2, 3])
        assert len(complex_.facets) == 8
        assert Simplex([(1, 0), (2, 1)]) in complex_

    def test_input_simplex(self):
        sigma = input_simplex({1: 0, 2: 1})
        assert sigma.value_of(2) == 1

    def test_empty_ids_rejected(self):
        with pytest.raises(TaskSpecificationError):
            full_input_complex([], [0])

    def test_empty_values_rejected(self):
        with pytest.raises(TaskSpecificationError):
            full_input_complex([1], [])


class TestTaskBasics:
    def test_delta_memoized(self):
        calls = []

        def delta(sigma):
            calls.append(sigma)
            return SimplicialComplex.from_simplex(sigma)

        task = Task(
            "identity",
            binary_input_complex([1, 2]),
            binary_input_complex([1, 2]),
            delta,
        )
        sigma = input_simplex({1: 0, 2: 1})
        task.delta(sigma)
        task.delta(sigma)
        assert len(calls) == 1

    def test_validate_passes_for_consensus(self):
        task = binary_consensus_task([1, 2, 3])
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == []

    def test_validate_rejects_color_leak(self):
        def delta(sigma):
            return SimplicialComplex.from_simplex(Simplex([(99, 0)]))

        task = Task(
            "bad",
            binary_input_complex([1]),
            SimplicialComplex.from_simplex(Simplex([(99, 0)])),
            delta,
        )
        assert name_leaks(task.delta_map) == list(task.input_complex)
        assert outputs_outside(task) == []

    def test_validate_rejects_output_outside_complex(self):
        def delta(sigma):
            return SimplicialComplex.from_simplex(
                Simplex((i, "stray") for i in sorted(sigma.ids))
            )

        task = Task(
            "bad",
            binary_input_complex([1]),
            binary_input_complex([1]),
            delta,
        )
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == list(task.input_complex)

    def test_outputs_outside_flags_values_missing_from_o(self):
        # Δ keeps the names but decides 9, a value O does not hold.
        inputs = SimplicialComplex.from_simplex(Simplex([(1, 0), (2, 0)]))
        outputs = SimplicialComplex.from_simplex(Simplex([(1, 0), (2, 0)]))
        task = Task(
            "escaping-outputs",
            inputs,
            outputs,
            lambda sigma: SimplicialComplex(
                [Simplex([(v.color, 9) for v in sigma.vertices])]
            ),
        )
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == list(inputs)


class TestDerivedTasks:
    def test_with_name(self):
        task = binary_consensus_task([1, 2]).with_name("renamed")
        assert task.name == "renamed"

    def test_monotonicity_of_consensus(self):
        # Consensus Δ is a carrier map: faces' outputs are contained.
        delta_map = binary_consensus_task([1, 2]).delta_map
        assert monotonicity_breaks(delta_map) == []
