"""Unit tests for (liberal) ε-approximate agreement on the rational grid."""

from fractions import Fraction
from itertools import product

import pytest

from repro.errors import TaskSpecificationError
from repro.tasks import (
    approximate_agreement_task,
    grid,
    liberal_approximate_agreement_task,
)
from repro.tasks.inputs import input_simplex
from repro.topology import Simplex, SimplicialComplex
from tests.properties import is_maximal, name_leaks, outputs_outside


def F(num, den=1):
    return Fraction(num, den)


class TestGrid:
    def test_grid_values(self):
        assert grid(4) == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]

    def test_grid_resolution_one(self):
        assert grid(1) == [F(0), F(1)]

    def test_invalid_resolution(self):
        with pytest.raises(TaskSpecificationError):
            grid(0)


class TestEpsilonValidation:
    def test_epsilon_must_divide_grid(self):
        with pytest.raises(TaskSpecificationError):
            approximate_agreement_task([1, 2], F(1, 3), 4)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(TaskSpecificationError):
            approximate_agreement_task([1, 2], 0, 4)

    def test_epsilon_accepts_strings_and_ints(self):
        task = approximate_agreement_task([1, 2], "1/4", 4)
        assert task.epsilon == F(1, 4)
        assert approximate_agreement_task([1, 2], 1, 4).epsilon == F(1)


class TestStandardTask:
    def test_outputs_within_epsilon(self):
        task = approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1, 2), 3: F(1)})
        for facet in task.delta(sigma).facets:
            values = [v.value for v in facet.vertices]
            assert max(values) - min(values) <= F(1, 4)

    def test_outputs_within_range(self):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        sigma = input_simplex({1: F(1, 4), 2: F(3, 4)})
        for facet in task.delta(sigma).facets:
            for vertex in facet.vertices:
                assert F(1, 4) <= vertex.value <= F(3, 4)

    def test_solo_keeps_input(self):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        sigma = input_simplex({1: F(1, 2)})
        assert task.delta(sigma).facets == frozenset({sigma})

    def test_uniform_inputs_force_that_value(self):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        sigma = input_simplex({1: F(1, 2), 2: F(1, 2)})
        assert task.delta(sigma).facets == frozenset({sigma})

    def test_delta_cached_by_window(self):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        left = task.delta(input_simplex({1: F(0), 2: F(1, 2)}))
        right = task.delta(input_simplex({1: F(1, 2), 2: F(0)}))
        assert left is right  # same (ids, min, max) key

    def test_validates(self):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == []

    def test_epsilon_one_makes_everything_legal(self):
        task = approximate_agreement_task([1, 2], 1, 2)
        sigma = input_simplex({1: F(0), 2: F(1)})
        # Any grid pair within range is fine when ε = 1.
        assert len(task.delta(sigma).facets) == 9


class TestLiberalTask:
    def test_two_participants_unconstrained_distance(self):
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1)})
        legal = task.delta(sigma)
        assert input_simplex({1: F(0), 2: F(1)}) in legal

    def test_two_participants_range_still_enforced(self):
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        sigma = input_simplex({1: F(1, 4), 2: F(1, 2)})
        legal = task.delta(sigma)
        assert input_simplex({1: F(0), 2: F(1, 2)}) not in legal

    def test_three_participants_constrained(self):
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1, 2), 3: F(1)})
        for facet in task.delta(sigma).facets:
            values = [v.value for v in facet.vertices]
            assert max(values) - min(values) <= F(1, 4)

    def test_output_complex_contains_wide_edges(self):
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        assert input_simplex({1: F(0), 3: F(1)}) in task.output_complex

    def test_standard_more_constrained_than_liberal(self):
        strict = approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        liberal = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        for sigma in [
            input_simplex({1: F(0), 2: F(1)}),
            input_simplex({1: F(0), 2: F(1, 2), 3: F(1)}),
        ]:
            assert (
                strict.delta(sigma).simplices
                <= liberal.delta(sigma).simplices
            )

    def test_validates(self):
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        assert name_leaks(task.delta_map) == []
        assert outputs_outside(task) == []

    def test_values_are_exact_fractions(self):
        task = liberal_approximate_agreement_task([1, 2], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1)})
        for vertex in task.delta(sigma).vertices:
            assert isinstance(vertex.value, Fraction)


def _reference_delta(sigma, epsilon, m, liberal):
    """Δ(σ) from exact Fractions, the way the task first defined it."""
    values = [Fraction(v.value) for v in sigma.vertices]
    low, high = min(values), max(values)
    window = [v for v in grid(m) if low <= v <= high]
    ids = sorted(sigma.ids)
    distance_free = liberal and len(ids) == 2
    return SimplicialComplex(
        Simplex(zip(ids, combo))
        for combo in product(window, repeat=len(ids))
        if distance_free or max(combo) - min(combo) <= epsilon
    )


class TestDeltaParity:
    """The band-built Δ equals the Fraction-built one on every σ."""

    @pytest.mark.parametrize("liberal", [False, True])
    @pytest.mark.parametrize(
        "n, m, steps",
        [
            pytest.param(
                n,
                m,
                steps,
                id=f"{steps}-{m}-{n}",
                # About 50 s together.
                marks=(pytest.mark.slow,) if n == 4 and m > 4 else (),
            )
            for n in (1, 2, 3, 4)
            for m in range(1, 9)
            # Every ε = k/m, and one step past the whole grid.
            for steps in range(1, m + 2)
        ],
    )
    def test_every_input_simplex(self, liberal, n, m, steps):
        epsilon = F(steps, m)
        build = (
            liberal_approximate_agreement_task
            if liberal
            else approximate_agreement_task
        )
        task = build(range(1, n + 1), epsilon, m)
        # The reference depends only on ID(σ) and σ's range, and Δ is
        # memoized: each complex is compared once per range.
        checked = {}
        for sigma in task.input_complex:
            got = task.delta(sigma)
            values = [Fraction(v.value) for v in sigma.vertices]
            key = (sigma.ids, min(values), max(values))
            if checked.get(key) is got:
                continue
            assert got == _reference_delta(sigma, epsilon, m, liberal), sigma
            checked[key] = got

    @pytest.mark.parametrize("liberal", [False, True])
    @pytest.mark.parametrize(
        "values",
        [
            {1: F(1, 3)},  # strictly between two grid points: Δ is empty
            {1: F(1, 3), 2: F(1, 3)},
            {1: F(1, 3), 2: F(3, 4)},
            {1: F(0), 2: F(1, 3), 3: F(5, 6)},
            {1: F(-1, 2), 2: F(3, 2)},  # beyond the grid on both sides
            {1: F(1, 8), 2: F(7, 8)},  # between grid points at both ends
            {1: F(1, 8), 2: F(1, 8), 3: F(1, 8)},  # an empty window
            {1: F(-1), 2: F(-1)},  # beyond the grid on one side only
            {1: F(-1), 2: F(1, 8), 3: F(2)},
        ],
    )
    def test_off_grid_sigma(self, liberal, values):
        build = (
            liberal_approximate_agreement_task
            if liberal
            else approximate_agreement_task
        )
        task = build([1, 2, 3], F(1, 4), 4)
        sigma = input_simplex(values)
        assert task.delta(sigma) == _reference_delta(
            sigma, F(1, 4), 4, liberal
        )

    @pytest.mark.parametrize("liberal", [False, True])
    def test_band_stores_maximal_facets(self, liberal):
        # Δ(σ) wraps its band with the trusted `from_maximal`.
        build = (
            liberal_approximate_agreement_task
            if liberal
            else approximate_agreement_task
        )
        task = build([1, 2, 3], F(1, 4), 4)
        for sigma in task.input_complex:
            assert is_maximal(task.delta(sigma)), sigma

    def test_vertices_carry_grid_fractions(self):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        sigma = input_simplex({1: 0, 2: 1})  # ints, not Fractions
        for vertex in task.delta(sigma).vertices:
            assert type(vertex.value) is Fraction

