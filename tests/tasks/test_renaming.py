"""Unit tests for the renaming task."""

import pytest

from repro.core import ClosureComputer, is_solvable
from repro.errors import TaskSpecificationError
from repro.tasks import renaming_task
from repro.tasks.inputs import input_simplex
from tests.properties import name_leaks, outputs_outside


class TestSpecification:
    def test_outputs_are_distinct(self):
        task = renaming_task([1, 2, 3], 3)
        sigma = input_simplex({1: "token", 2: "token", 3: "token"})
        for facet in task.delta(sigma).facets:
            names = [v.value for v in facet.vertices]
            assert len(set(names)) == len(names)

    def test_output_count(self):
        task = renaming_task([1, 2], 3)
        sigma = input_simplex({1: "token", 2: "token"})
        assert len(task.delta(sigma).facets) == 6  # 3·2 injections

    def test_partial_participation(self):
        task = renaming_task([1, 2, 3], 3)
        sigma = input_simplex({2: "token"})
        assert len(task.delta(sigma).facets) == 3

    def test_too_small_namespace_empties_delta(self):
        task = renaming_task([1, 2, 3], 2)
        sigma = input_simplex({1: "token", 2: "token", 3: "token"})
        assert task.delta(sigma).is_empty()

    def test_invalid_namespace(self):
        with pytest.raises(TaskSpecificationError):
            renaming_task([1], 0)

    def test_validates(self):
        task = renaming_task([1, 2], 3)
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == []


class TestSolvability:
    def test_id_dependent_renaming_is_zero_round(self, iis):
        # Without the index-independence (symmetry) requirement, renaming
        # with M ≥ n names is trivially 0-round solvable: process i takes
        # the i-th name.  The classical 2n−1 lower bound is about
        # *symmetric* algorithms — a restriction the task triple itself
        # cannot express, which is precisely why renaming needs different
        # machinery than the closure technique (cf. the paper's related
        # work on step complexity of renaming).
        for n, M in [(2, 2), (2, 3), (3, 3)]:
            task = renaming_task(range(1, n + 1), M)
            assert is_solvable(task, iis, 0)

    def test_insufficient_namespace_unsolvable(self, iis):
        task = renaming_task([1, 2, 3], 2)
        sigma = input_simplex({1: "token", 2: "token", 3: "token"})
        simplices = [sigma] + list(sigma.proper_faces())
        assert not is_solvable(task, iis, 0, input_simplices=simplices)
        assert not is_solvable(task, iis, 1, input_simplices=simplices)

    def test_closure_of_unsolvable_instance_stays_empty(self, iis):
        # Δ(σ) = ∅ for the full simplex ⟹ Δ'(σ) = ∅ too (no τ can even be
        # drawn from V(Δ(σ))): the closure cannot manufacture solvability.
        task = renaming_task([1, 2, 3], 2)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: "token", 2: "token", 3: "token"})
        assert computer.legal_outputs(sigma) == []
