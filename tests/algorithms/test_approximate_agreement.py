"""Exhaustive and randomized tests for the AA algorithms (no objects)."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import HalvingAA, TwoProcessThirdsAA
from repro.algorithms.approximate_agreement import _capped_range
from repro.errors import RuntimeModelError
from repro.faults.fixtures import TooFewRoundsAA
from repro.runtime import (
    IteratedExecutor,
    RandomAdversary,
    ReplayAdversary,
    TraceRound,
    all_schedule_sequences,
)


def F(num, den=1):
    return Fraction(num, den)


def run_all_schedules(algorithm, inputs):
    executor = IteratedExecutor()
    for sequence in all_schedule_sequences(sorted(inputs), algorithm.rounds):
        adversary = ReplayAdversary([TraceRound(b) for b in sequence])
        yield executor.run(algorithm, inputs, adversary)


def check_aa(result, inputs, epsilon):
    values = list(result.decisions.values())
    lo, hi = min(inputs.values()), max(inputs.values())
    assert max(values) - min(values) <= epsilon
    assert all(lo <= v <= hi for v in values)


#: Small rationals, negatives included, so that lists repeat values often.
small_fractions = st.fractions(
    min_value=-2, max_value=2, max_denominator=4
)


def fresh(values):
    """Equal values as distinct objects, so ties are told apart."""
    return [Fraction(v.numerator, v.denominator) for v in values]


class TestCappedRange:
    """The integer kernel is the builtin ``min(max(S), min(S) + ε)``."""

    @given(
        st.lists(small_fractions, min_size=1, max_size=6),
        st.fractions(min_value=0, max_value=2, max_denominator=8),
    )
    @example([F(1, 2)], F(1, 4))
    @example([F(1, 2), F(1, 2)], F(0))
    @example([F(0), F(1, 2), F(1, 2)], F(1, 2))
    @example([F(-1), F(1, 2), F(-1)], F(3, 2))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_builtin_map(self, values, eps):
        values = fresh(values)
        expected = min(max(values), min(values) + eps)
        result = _capped_range(values, eps)
        assert result == expected
        # The same object, too: the first maximum when the builtins
        # return it, otherwise a new sum.
        assert (result is expected) == any(v is expected for v in values)


class TestHalvingAA:
    def test_round_count_matches_bound(self):
        assert HalvingAA(F(1, 2)).rounds == 1
        assert HalvingAA(F(1, 4)).rounds == 2
        assert HalvingAA(F(1, 8)).rounds == 3
        assert HalvingAA(F(1, 5)).rounds == 3

    def test_round_epsilon_halves(self):
        algorithm = HalvingAA(F(1, 8))
        assert algorithm.round_epsilon(1) == F(1, 2)
        assert algorithm.round_epsilon(2) == F(1, 4)
        assert algorithm.round_epsilon(3) == F(1, 8)

    def test_round_parameters_follow_the_round_count(self):
        # ε_r is computed when the algorithm is built, from the round
        # count it ends up with, including the one-short fixture's.
        assert HalvingAA(F(1, 8), rounds=5).round_epsilon(1) == 2
        short = TooFewRoundsAA(F(1, 8))
        assert short.rounds == 2
        assert short.round_epsilon(1) == F(1, 4)
        assert short.round_epsilon(2) == F(1, 8)

    def test_round_outside_the_algorithm_rejected(self):
        algorithm = HalvingAA(F(1, 4))
        for round_index in (0, 3):
            with pytest.raises(RuntimeModelError, match="outside rounds"):
                algorithm.round_epsilon(round_index)

    def test_invalid_epsilon(self):
        with pytest.raises(RuntimeModelError):
            HalvingAA(0)
        with pytest.raises(RuntimeModelError):
            HalvingAA(2)

    def test_exhaustive_three_processes_quarter(self):
        eps = F(1, 4)
        algorithm = HalvingAA(eps)
        inputs = {1: F(0), 2: F(1, 2), 3: F(1)}
        for result in run_all_schedules(algorithm, inputs):
            check_aa(result, inputs, eps)

    def test_exhaustive_all_grid_inputs_half(self):
        eps = F(1, 2)
        algorithm = HalvingAA(eps)
        values = [F(0), F(1, 2), F(1)]
        for combo in product(values, repeat=3):
            inputs = dict(zip([1, 2, 3], combo))
            for result in run_all_schedules(algorithm, inputs):
                check_aa(result, inputs, eps)

    def test_outputs_stay_on_grid(self):
        eps = F(1, 4)
        algorithm = HalvingAA(eps)
        inputs = {1: F(0), 2: F(3, 4), 3: F(1)}
        for result in run_all_schedules(algorithm, inputs):
            for value in result.decisions.values():
                assert (value * 4).denominator == 1

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_random_adversary_with_crashes(self, seed):
        eps = F(1, 8)
        algorithm = HalvingAA(eps)
        inputs = {1: F(0), 2: F(3, 8), 3: F(5, 8), 4: F(1)}
        adversary = RandomAdversary(seed=seed, crash_probability=0.2)
        result = IteratedExecutor().run(algorithm, inputs, adversary)
        check_aa(result, inputs, eps)

    def test_extra_rounds_harmless(self):
        eps = F(1, 2)
        algorithm = HalvingAA(eps, rounds=3)
        inputs = {1: F(0), 2: F(1), 3: F(1)}
        result = IteratedExecutor().run(algorithm, inputs)
        check_aa(result, inputs, eps)


class TestTwoProcessThirdsAA:
    def test_round_count_matches_bound(self):
        assert TwoProcessThirdsAA(F(1, 3)).rounds == 1
        assert TwoProcessThirdsAA(F(1, 9)).rounds == 2
        assert TwoProcessThirdsAA(F(1, 4)).rounds == 2

    def test_round_epsilon_triples(self):
        algorithm = TwoProcessThirdsAA(F(1, 9))
        assert algorithm.round_epsilon(1) == F(1, 3)
        assert algorithm.round_epsilon(2) == F(1, 9)

    def test_exhaustive_grid_ninths(self):
        eps = F(1, 9)
        algorithm = TwoProcessThirdsAA(eps)
        values = [F(k, 9) for k in range(10)]
        for x1, x2 in product(values, repeat=2):
            inputs = {1: x1, 2: x2}
            for result in run_all_schedules(algorithm, inputs):
                check_aa(result, inputs, eps)

    def test_faster_than_halving_for_two_processes(self):
        # The crossover of Corollary 3: base 3 beats base 2.
        assert TwoProcessThirdsAA(F(1, 9)).rounds == 2
        assert HalvingAA(F(1, 9)).rounds == 4

    def test_three_processes_rejected(self):
        algorithm = TwoProcessThirdsAA(F(1, 3))
        inputs = {1: F(0), 2: F(1, 3), 3: F(1)}
        with pytest.raises(RuntimeModelError):
            IteratedExecutor().run(algorithm, inputs)

    def test_solo_process_keeps_value(self):
        algorithm = TwoProcessThirdsAA(F(1, 3))
        result = IteratedExecutor().run(algorithm, {2: F(1, 3)})
        assert result.decisions == {2: F(1, 3)}

    @given(
        small_fractions,
        small_fractions,
        st.sampled_from([(1, 2), (2, 1), (3, 7), (7, 3)]),
        st.integers(min_value=1, max_value=3),
    )
    @example(F(1, 3), F(1, 3), (1, 2), 1)
    @example(F(1, 3), F(1, 3), (2, 1), 2)
    @settings(max_examples=200, deadline=None)
    def test_step_is_equation_two(self, first, second, ids, round_index):
        # Eq. (2) literally: p₁ holds the smaller value, ties broken
        # toward the smaller id; p₁ caps at lo + 2·ε_r, p₂ at lo + ε_r.
        algorithm = TwoProcessThirdsAA(F(1, 27))
        eps = algorithm.round_epsilon(round_index)
        seen = {ids[0]: first, ids[1]: second}
        (p1, lo), (p2, hi) = sorted(
            seen.items(), key=lambda item: (item[1], item[0])
        )
        expected = {p1: min(hi, lo + 2 * eps), p2: min(hi, lo + eps)}
        for process in seen:
            assert (
                algorithm.step(process, seen[process], seen, None, round_index)
                == expected[process]
            )
            solo = {process: seen[process]}
            assert (
                algorithm.step(process, seen[process], solo, None, round_index)
                == seen[process]
            )

    def test_tie_values_agree_immediately(self):
        algorithm = TwoProcessThirdsAA(F(1, 3))
        inputs = {1: F(2, 3), 2: F(2, 3)}
        for result in run_all_schedules(algorithm, inputs):
            assert set(result.decisions.values()) == {F(2, 3)}
