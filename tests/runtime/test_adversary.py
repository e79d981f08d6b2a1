"""Unit tests for adversarial schedulers."""

from fractions import Fraction

import pytest

from repro.algorithms import ConsensusViaBinaryConsensus, HalvingAA
from repro.errors import RuntimeModelError
from repro.models.schedules import schedule_from_blocks
from repro.objects import BinaryConsensusBox
from repro.runtime import (
    FullSyncAdversary,
    IteratedExecutor,
    RandomAdversary,
    RandomMatrixAdversary,
    ReplayAdversary,
    SoloFirstAdversary,
    TraceRound,
    all_schedule_sequences,
)


ACTIVE = frozenset({1, 2, 3})
SYNC3 = schedule_from_blocks([[1, 2, 3]])
AA_INPUTS = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(1)}


class TestFullSync:
    def test_single_block(self):
        schedule = FullSyncAdversary().schedule(1, ACTIVE)
        assert schedule.blocks() == (ACTIVE,)

    def test_no_crashes(self):
        assert FullSyncAdversary().crashes(1, ACTIVE) == frozenset()


class TestSoloFirst:
    def test_chosen_process_runs_alone_first(self):
        schedule = SoloFirstAdversary(2).schedule(1, ACTIVE)
        assert schedule.blocks()[0] == frozenset({2})
        assert schedule.view_of(2) == frozenset({2})

    def test_absent_process_falls_back_to_sync(self):
        schedule = SoloFirstAdversary(9).schedule(1, ACTIVE)
        assert schedule.blocks() == (ACTIVE,)

    def test_sole_survivor(self):
        schedule = SoloFirstAdversary(1).schedule(1, frozenset({1}))
        assert schedule.blocks() == (frozenset({1}),)


class TestFixedSchedule:
    """A fixed block schedule replays as a sequence of ``TraceRound``s."""

    def test_replays_blocks(self):
        adversary = ReplayAdversary(
            [TraceRound(((1,), (2, 3))), TraceRound(((3,), (1,), (2,)))]
        )
        first = adversary.schedule(1, ACTIVE)
        assert first.blocks() == (frozenset({1}), frozenset({2, 3}))
        second = adversary.schedule(2, ACTIVE)
        assert second.blocks()[0] == frozenset({3})

    def test_trims_crashed_processes(self):
        adversary = ReplayAdversary([TraceRound(((1,), (2, 3)))])
        schedule = adversary.schedule(1, frozenset({2, 3}))
        assert schedule.blocks() == (frozenset({2, 3}),)

    def test_uncovered_active_processes_run_last(self):
        adversary = ReplayAdversary([TraceRound(((1,),))])
        schedule = adversary.schedule(1, ACTIVE)
        assert schedule.blocks() == (frozenset({1}), frozenset({2, 3}))

    @pytest.mark.parametrize("round_index", [0, -1])
    def test_rounds_before_the_first_rejected(self, round_index):
        # Round 0 must not wrap around to the last round's schedule.
        adversary = ReplayAdversary(
            [TraceRound(((1,), (2,))), TraceRound(((1, 2),))]
        )
        with pytest.raises(RuntimeModelError):
            adversary.schedule(round_index, frozenset({1, 2}))

    def test_rounds_past_the_sequence_run_synchronously(self):
        adversary = ReplayAdversary(
            [TraceRound(((1,), (2,))), TraceRound(((2,), (1,)))]
        )
        schedule = adversary.schedule(3, frozenset({1, 2}))
        assert schedule.blocks() == (frozenset({1, 2}),)


class TestReplayAdversary:
    def test_box_choice_is_clamped_into_the_options(self):
        adversary = ReplayAdversary([TraceRound(((1, 2, 3),), box_choice=5)])
        options = [{"o": 1}, {"o": 2}]
        assert adversary.choose_assignment(1, SYNC3, options) == {"o": 2}

    @pytest.mark.parametrize(
        "algorithm, inputs, box, adversary_of",
        [
            pytest.param(
                HalvingAA(Fraction(1, 8)),
                AA_INPUTS,
                None,
                lambda seed: RandomAdversary(seed, crash_probability=0.3),
                id="iis-crashes",
            ),
            pytest.param(
                HalvingAA(Fraction(1, 8)),
                AA_INPUTS,
                None,
                lambda seed: RandomMatrixAdversary("snapshot", seed),
                id="snapshot",
            ),
            pytest.param(
                HalvingAA(Fraction(1, 8)),
                AA_INPUTS,
                None,
                lambda seed: RandomMatrixAdversary("collect", seed),
                id="collect",
            ),
            pytest.param(
                ConsensusViaBinaryConsensus(3),
                {1: "x", 2: "y", 3: "z"},
                BinaryConsensusBox(),
                lambda seed: RandomAdversary(seed),
                id="binary-consensus-box",
            ),
        ],
    )
    def test_replay_reproduces_the_execution(
        self, algorithm, inputs, box, adversary_of
    ):
        executor = IteratedExecutor(box=box)
        for seed in range(20):
            original = executor.run(algorithm, inputs, adversary_of(seed))
            replayed = executor.run(
                algorithm, inputs, ReplayAdversary(original.trace)
            )
            assert replayed.decisions == original.decisions
            assert replayed.crashed == original.crashed
            assert replayed.trace == original.trace


class TestRandomAdversary:
    def test_deterministic_per_seed(self):
        left = RandomAdversary(seed=5)
        right = RandomAdversary(seed=5)
        for round_index in range(1, 5):
            assert left.schedule(round_index, ACTIVE) == right.schedule(
                round_index, ACTIVE
            )

    def test_schedule_covers_active(self):
        adversary = RandomAdversary(seed=1)
        for round_index in range(1, 20):
            schedule = adversary.schedule(round_index, ACTIVE)
            assert schedule.participants == ACTIVE

    def test_never_crashes_everyone(self):
        adversary = RandomAdversary(seed=3, crash_probability=0.9)
        active = ACTIVE
        for round_index in range(1, 50):
            doomed = adversary.crashes(round_index, active)
            active = active - doomed
            assert active
            if len(active) == 1:
                break

    @pytest.mark.parametrize("probability", [-0.1, 1.5, float("nan")])
    def test_probability_outside_unit_interval_rejected(self, probability):
        with pytest.raises(RuntimeModelError, match="outside"):
            RandomAdversary(seed=0, crash_probability=probability)

    def test_zero_probability_never_crashes(self):
        adversary = RandomAdversary(seed=3, crash_probability=0.0)
        assert adversary.crashes(1, ACTIVE) == frozenset()

    def test_chooses_among_options(self):
        adversary = RandomAdversary(seed=4)
        options = [{"o": 1}, {"o": 2}, {"o": 3}]
        chosen = {
            tuple(
                adversary.choose_assignment(
                    1, FullSyncAdversary().schedule(1, ACTIVE), options
                ).items()
            )
            for _ in range(50)
        }
        assert len(chosen) > 1  # actually randomizes


class TestExhaustiveSequences:
    def test_counts(self):
        assert len(list(all_schedule_sequences([1, 2], 1))) == 3
        assert len(list(all_schedule_sequences([1, 2], 2))) == 9
        assert len(list(all_schedule_sequences([1, 2, 3], 1))) == 13

    def test_negative_round_count_rejected(self):
        with pytest.raises(RuntimeModelError):
            all_schedule_sequences([1, 2], -1)

    def test_sequences_are_block_tuples(self):
        for sequence in all_schedule_sequences([1, 2], 2):
            assert len(sequence) == 2
            for blocks in sequence:
                flattened = sorted(p for block in blocks for p in block)
                assert flattened == [1, 2]

    def test_two_process_two_round_enumeration_is_exhaustive(self):
        # Fubini(2)² = 9 pairwise-distinct sequences, covering the full
        # Cartesian product of the three one-round block schedules.
        sequences = list(all_schedule_sequences([1, 2], 2))
        assert len(sequences) == len(set(sequences)) == 9
        per_round = {
            tuple(frozenset(block) for block in blocks)
            for sequence in sequences
            for blocks in sequence
        }
        solo1 = (frozenset({1}), frozenset({2}))
        solo2 = (frozenset({2}), frozenset({1}))
        sync = (frozenset({1, 2}),)
        assert per_round == {solo1, solo2, sync}
        # Every (round-1, round-2) combination appears exactly once.
        combos = {
            tuple(
                tuple(frozenset(block) for block in blocks)
                for blocks in sequence
            )
            for sequence in sequences
        }
        assert len(combos) == 9

    def test_enumeration_realizes_every_view_profile(self):
        # Driving the executor over all 9 sequences must hit 9 distinct
        # two-round view profiles — the protocol complex has 3² facets
        # for n = 2, so none of them may collapse.
        inputs = {1: Fraction(0), 2: Fraction(1)}
        profiles = set()
        for sequence in all_schedule_sequences([1, 2], 2):
            adversary = ReplayAdversary([TraceRound(b) for b in sequence])
            result = IteratedExecutor().run(
                HalvingAA(Fraction(1, 4)), inputs, adversary
            )
            profiles.add(
                tuple(
                    tuple(
                        sorted(
                            schedule_from_blocks(record.blocks)
                            .view_map()
                            .items()
                        )
                    )
                    for record in result.trace
                )
            )
        assert len(profiles) == 9
