"""Tests for bitwise approximate agreement via binary consensus."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BitwiseAA
from repro.errors import RuntimeModelError
from repro.objects import BinaryConsensusBox
from repro.runtime import (
    IteratedExecutor,
    RandomAdversary,
    ReplayAdversary,
    TraceRound,
    all_schedule_sequences,
)


def F(num, den=1):
    return Fraction(num, den)


def check_aa(result, inputs, epsilon):
    values = list(result.decisions.values())
    lo, hi = min(inputs.values()), max(inputs.values())
    assert max(values) - min(values) <= epsilon
    assert all(lo <= v <= hi for v in values)


class TestBitwiseAA:
    def test_round_count(self):
        assert BitwiseAA(F(1, 2)).rounds == 1
        assert BitwiseAA(F(1, 4)).rounds == 2
        assert BitwiseAA(F(1, 8)).rounds == 3

    def test_invalid_epsilon(self):
        with pytest.raises(RuntimeModelError):
            BitwiseAA(0)

    def test_inputs_outside_unit_interval_rejected(self):
        algorithm = BitwiseAA(F(1, 2))
        with pytest.raises(RuntimeModelError):
            IteratedExecutor(box=BinaryConsensusBox()).run(
                algorithm, {1: F(3, 2)}
            )

    def test_requires_box(self):
        with pytest.raises(RuntimeModelError):
            IteratedExecutor().run(BitwiseAA(F(1, 2)), {1: F(0), 2: F(1)})

    def test_exhaustive_three_processes_quarter(self):
        eps = F(1, 4)
        algorithm = BitwiseAA(eps)
        executor = IteratedExecutor(box=BinaryConsensusBox())
        inputs = {1: F(0), 2: F(3, 8), 3: F(1)}
        for sequence in all_schedule_sequences([1, 2, 3], algorithm.rounds):
            for option in range(2):
                adversary = ReplayAdversary(
                    [TraceRound(b, box_choice=option) for b in sequence]
                )
                result = executor.run(algorithm, inputs, adversary)
                check_aa(result, inputs, eps)

    def test_edge_value_one_handled(self):
        # The dyadic-window invariant must survive the value 1 (all of
        # whose fractional bits are 0 in the naive encoding).
        eps = F(1, 4)
        algorithm = BitwiseAA(eps)
        executor = IteratedExecutor(box=BinaryConsensusBox())
        inputs = {1: F(1), 2: F(1), 3: F(0)}
        for sequence in all_schedule_sequences([1, 2, 3], algorithm.rounds):
            for option in range(2):
                adversary = ReplayAdversary(
                    [TraceRound(b, box_choice=option) for b in sequence]
                )
                result = executor.run(algorithm, inputs, adversary)
                check_aa(result, inputs, 1)  # range + agreement window
                values = list(result.decisions.values())
                assert max(values) - min(values) <= eps

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_adversary_with_crashes(self, seed):
        eps = F(1, 8)
        algorithm = BitwiseAA(eps)
        executor = IteratedExecutor(box=BinaryConsensusBox())
        inputs = {1: F(0), 2: F(5, 16), 3: F(11, 16), 4: F(1)}
        adversary = RandomAdversary(seed=seed, crash_probability=0.2)
        result = executor.run(algorithm, inputs, adversary)
        check_aa(result, inputs, eps)

    def test_outputs_are_input_values(self):
        # The algorithm never synthesizes values: every decision is some
        # participant's input.
        eps = F(1, 4)
        algorithm = BitwiseAA(eps)
        executor = IteratedExecutor(box=BinaryConsensusBox())
        inputs = {1: F(1, 8), 2: F(5, 8), 3: F(7, 8)}
        for sequence in all_schedule_sequences([1, 2, 3], algorithm.rounds):
            adversary = ReplayAdversary([TraceRound(b) for b in sequence])
            result = executor.run(algorithm, inputs, adversary)
            assert set(result.decisions.values()) <= set(inputs.values())

    def test_value_dependent_box_inputs(self):
        # Unlike ConsensusViaBinaryConsensus, the call depends on the
        # process's value — the family outside Theorem 4's hypothesis.
        algorithm = BitwiseAA(F(1, 2))
        low = algorithm.initial_state(1, F(0))
        high = algorithm.initial_state(1, F(1))
        assert algorithm.box_input(1, low, 1) == 0
        assert algorithm.box_input(1, high, 1) == 1
