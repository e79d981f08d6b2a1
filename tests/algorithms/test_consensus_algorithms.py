"""Tests for the object-augmented consensus algorithms."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ConsensusViaBinaryConsensus, TwoProcessConsensusTAS
from repro.errors import RuntimeModelError
from repro.objects import BinaryConsensusBox, TestAndSetBox
from repro.runtime import (
    IteratedExecutor,
    RandomAdversary,
    ReplayAdversary,
    TraceRound,
    all_schedule_sequences,
)


def check_consensus(result, inputs):
    values = set(result.decisions.values())
    assert len(values) == 1
    assert values <= set(inputs.values())


class TestTwoProcessConsensusTAS:
    def test_single_round(self):
        assert TwoProcessConsensusTAS.rounds == 1

    def test_exhaustive_schedules_and_winners(self):
        executor = IteratedExecutor(box=TestAndSetBox())
        for inputs in ({1: "a", 2: "b"}, {1: 0, 2: 1}, {1: "s", 2: "s"}):
            for sequence in all_schedule_sequences([1, 2], 1):
                for option in range(2):
                    adversary = ReplayAdversary(
                        [TraceRound(sequence[0], box_choice=option)]
                    )
                    result = executor.run(
                        TwoProcessConsensusTAS(), inputs, adversary
                    )
                    check_consensus(result, inputs)

    def test_winner_decides_own_input(self):
        executor = IteratedExecutor(box=TestAndSetBox())
        result = executor.run(
            TwoProcessConsensusTAS(),
            {1: "mine", 2: "theirs"},
            ReplayAdversary([TraceRound(((1, 2),))]),  # winner = process 1
        )
        assert set(result.decisions.values()) == {"mine"}

    def test_three_processes_rejected(self):
        executor = IteratedExecutor(box=TestAndSetBox())
        with pytest.raises(RuntimeModelError):
            executor.run(
                TwoProcessConsensusTAS(), {1: "a", 2: "b", 3: "c"}
            )

    def test_solo_execution_decides_own_input(self):
        executor = IteratedExecutor(box=TestAndSetBox())
        result = executor.run(TwoProcessConsensusTAS(), {2: "v"})
        assert result.decisions == {2: "v"}


class TestConsensusViaBinaryConsensus:
    def test_round_counts(self):
        assert ConsensusViaBinaryConsensus(2).rounds == 1
        assert ConsensusViaBinaryConsensus(3).rounds == 2
        assert ConsensusViaBinaryConsensus(4).rounds == 2
        assert ConsensusViaBinaryConsensus(5).rounds == 3

    def test_invalid_n(self):
        with pytest.raises(RuntimeModelError):
            ConsensusViaBinaryConsensus(1)

    def test_exhaustive_three_processes(self):
        algorithm = ConsensusViaBinaryConsensus(3)
        executor = IteratedExecutor(box=BinaryConsensusBox())
        inputs = {1: "x", 2: "y", 3: "z"}
        for sequence in all_schedule_sequences([1, 2, 3], algorithm.rounds):
            for option in range(2):
                adversary = ReplayAdversary(
                    [TraceRound(b, box_choice=option) for b in sequence]
                )
                result = executor.run(algorithm, inputs, adversary)
                check_consensus(result, inputs)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_adversary_with_crashes_n4(self, seed):
        algorithm = ConsensusViaBinaryConsensus(4)
        executor = IteratedExecutor(box=BinaryConsensusBox())
        inputs = {1: "a", 2: "b", 3: "c", 4: "d"}
        adversary = RandomAdversary(seed=seed, crash_probability=0.15)
        result = executor.run(algorithm, inputs, adversary)
        check_consensus(result, inputs)

    def test_partial_participation(self):
        algorithm = ConsensusViaBinaryConsensus(4)
        executor = IteratedExecutor(box=BinaryConsensusBox())
        inputs = {2: "b", 4: "d"}
        result = executor.run(algorithm, inputs)
        check_consensus(result, inputs)

    def test_box_inputs_are_id_bits(self):
        # Theorem 4's hypothesis: the first-round call depends only on the
        # process identifier.
        algorithm = ConsensusViaBinaryConsensus(4)
        state1 = algorithm.initial_state(1, "whatever")
        state4 = algorithm.initial_state(4, "other")
        assert algorithm.box_input(1, state1, 1) == 0  # id 0 = 0b00
        assert algorithm.box_input(4, state4, 1) == 1  # id 3 = 0b11

    def test_requires_box(self):
        algorithm = ConsensusViaBinaryConsensus(2)
        with pytest.raises(RuntimeModelError):
            IteratedExecutor().run(algorithm, {1: "a", 2: "b"})
