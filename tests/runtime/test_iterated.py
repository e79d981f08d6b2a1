"""Unit tests for the iterated executor."""

from fractions import Fraction

import pytest

from repro.algorithms import HalvingAA, TwoProcessConsensusTAS
from repro.errors import RuntimeModelError
from repro.faults.fixtures import StubbornAlgorithm
from repro.models.schedules import schedule_from_blocks
from repro.objects import TestAndSetBox
from repro.runtime import (
    FullSyncAdversary,
    IteratedExecutor,
    RandomAdversary,
    ReplayAdversary,
    SoloFirstAdversary,
    TraceRound,
)


def F(num, den=1):
    return Fraction(num, den)


INPUTS = {1: F(0), 2: F(1, 2), 3: F(1)}


def recorded_views(record):
    """Each participant's view, rebuilt from the recorded blocks."""
    return schedule_from_blocks(record.blocks).view_map()


class TestBasicExecution:
    def test_synchronous_run_decides_for_everyone(self):
        result = IteratedExecutor().run(HalvingAA(F(1, 4)), INPUTS)
        assert sorted(result.decisions) == [1, 2, 3]
        assert result.crashed == {}

    def test_trace_records_rounds(self):
        algorithm = HalvingAA(F(1, 4))
        result = IteratedExecutor().run(algorithm, INPUTS)
        assert len(result.trace) == algorithm.rounds
        assert result.trace[0].blocks == ((1, 2, 3),)

    def test_views_in_trace_match_blocks(self):
        adversary = ReplayAdversary(
            [TraceRound(((2,), (1, 3))), TraceRound(((1, 2, 3),))]
        )
        result = IteratedExecutor().run(HalvingAA(F(1, 4)), INPUTS, adversary)
        views = recorded_views(result.trace[0])
        assert views[2] == {2}
        assert views[1] == {1, 2, 3}

    def test_empty_inputs_rejected(self):
        with pytest.raises(RuntimeModelError):
            IteratedExecutor().run(HalvingAA(F(1, 2)), {})

    def test_surviving(self):
        result = IteratedExecutor().run(HalvingAA(F(1, 2)), INPUTS)
        assert result.surviving() == (1, 2, 3)


class _SeenStates(StubbornAlgorithm):
    """One round; each process decides the states it saw."""

    rounds = 1

    def step(self, process, state, seen_states, box_output, round_index):
        return tuple(sorted(seen_states.items()))


class TestNoneState:
    @pytest.mark.parametrize(
        "adversary",
        [FullSyncAdversary(), SoloFirstAdversary(2)],
        ids=["sync", "solo-first"],
    )
    def test_none_state_is_seen(self, adversary):
        result = IteratedExecutor().run(
            _SeenStates(), {1: None, 2: "b"}, adversary
        )
        assert result.decisions[1] == ((1, None), (2, "b"))


class TestCrashes:
    def test_crashed_processes_do_not_decide(self):
        class CrashTwo(FullSyncAdversary):
            def crashes(self, round_index, active):
                return frozenset({2}) if round_index == 1 else frozenset()

        result = IteratedExecutor().run(
            HalvingAA(F(1, 4)), INPUTS, CrashTwo()
        )
        assert 2 not in result.decisions
        assert result.crashed == {2: 1}
        assert sorted(result.decisions) == [1, 3]

    def test_survivors_still_satisfy_agreement(self):
        for seed in range(30):
            adversary = RandomAdversary(seed=seed, crash_probability=0.25)
            result = IteratedExecutor().run(
                HalvingAA(F(1, 4)), INPUTS, adversary
            )
            values = list(result.decisions.values())
            assert values, "wait-freedom: someone must decide"
            assert max(values) - min(values) <= F(1, 4)

    def test_adversary_cannot_kill_everyone(self):
        class KillAll(FullSyncAdversary):
            def crashes(self, round_index, active):
                return active

        with pytest.raises(RuntimeModelError):
            IteratedExecutor().run(HalvingAA(F(1, 2)), INPUTS, KillAll())


class TestScheduleValidation:
    def test_partial_schedule_rejected(self):
        class BadAdversary(FullSyncAdversary):
            def schedule(self, round_index, active):
                from repro.models.schedules import schedule_from_blocks

                return schedule_from_blocks([sorted(active)[:1]])

        with pytest.raises(RuntimeModelError):
            IteratedExecutor().run(HalvingAA(F(1, 2)), INPUTS, BadAdversary())


class TestCrashSemantics:
    """Pin down what 'crashing at round r' means, pre- and mid-round."""

    class _CrashTwoAtTwo(FullSyncAdversary):
        def crashes(self, round_index, active):
            return frozenset({2}) if round_index == 2 else frozenset()

    def test_pre_round_crash_removes_victim_from_the_round(self):
        result = IteratedExecutor().run(
            HalvingAA(F(1, 4)), INPUTS, self._CrashTwoAtTwo()
        )
        second = result.trace[1]
        scheduled = {p for block in second.blocks for p in block}
        assert scheduled == {1, 3}
        assert 2 not in recorded_views(second)
        assert result.crashed == {2: 2}

    def test_crashed_process_absent_from_all_later_rounds(self):
        result = IteratedExecutor().run(
            HalvingAA(F(1, 8)), INPUTS, self._CrashTwoAtTwo()
        )
        for record in result.trace[1:]:
            assert all(2 not in block for block in record.blocks)
            assert 2 not in recorded_views(record)

    def test_survivors_decide_without_the_victim(self):
        result = IteratedExecutor().run(
            HalvingAA(F(1, 4)), INPUTS, self._CrashTwoAtTwo()
        )
        assert sorted(result.decisions) == [1, 3]
        values = list(result.decisions.values())
        assert max(values) - min(values) <= F(1, 4)

    def test_first_round_crash_input_never_seen(self):
        class CrashOneImmediately(FullSyncAdversary):
            def crashes(self, round_index, active):
                return frozenset({1}) if round_index == 1 else frozenset()

        result = IteratedExecutor().run(
            HalvingAA(F(1, 4)), INPUTS, CrashOneImmediately()
        )
        # Victim died before writing anything: survivors converge inside
        # the surviving inputs' range.
        values = list(result.decisions.values())
        assert min(values) >= F(1, 2)
        assert result.crashed == {1: 1}


    def test_crash_outside_the_active_set_rejected(self):
        # Process 3 dies before round 1; a later crash set naming it
        # again, or a process that never took part, is an adversary bug,
        # not a second crash in a later round.
        class RepeatsItself(FullSyncAdversary):
            def crashes(self, round_index, active):
                if round_index == 1:
                    return frozenset({3})
                return frozenset({3, 99})

        with pytest.raises(RuntimeModelError, match=r"\[3, 99\]"):
            IteratedExecutor().run(
                HalvingAA(F(1, 4)), INPUTS, RepeatsItself()
            )


class TestMidRoundCrashSemantics:
    """Mid-round victims write (survivors see them) but never snapshot."""

    class _MidCrashTwo(FullSyncAdversary):
        def mid_round_crashes(self, round_index, schedule):
            return frozenset({2}) if round_index == 1 else frozenset()

    def test_victim_write_visible_but_victim_has_no_view(self):
        result = IteratedExecutor().run(
            HalvingAA(F(1, 4)), INPUTS, self._MidCrashTwo()
        )
        first = result.trace[0]
        assert first.mid_crashes == (2,)
        # The victim never snapshots, so it never steps or decides...
        assert result.crashed == {2: 1}
        assert sorted(result.decisions) == [1, 3]
        # ...but its write is visible to the synchronous survivors.
        assert 2 in recorded_views(first)[1]

    def test_injector_may_not_kill_every_participant(self):
        class KillEveryone(FullSyncAdversary):
            def mid_round_crashes(self, round_index, schedule):
                return schedule.participants

        with pytest.raises(RuntimeModelError):
            IteratedExecutor().run(
                HalvingAA(F(1, 4)), INPUTS, KillEveryone()
            )

    def test_crash_outside_the_round_rejected(self):
        # A mid-round victim that is not a participant of the round is an
        # adversary bug, exactly as for pre-round crashes.
        class NamesAStranger(FullSyncAdversary):
            def mid_round_crashes(self, round_index, schedule):
                return frozenset({99})

        with pytest.raises(RuntimeModelError, match=r"\[99\]"):
            IteratedExecutor().run(
                HalvingAA(F(1, 4)), INPUTS, NamesAStranger()
            )

    def test_executor_survives_n_minus_1_crashes(self):
        class CrashStorm(FullSyncAdversary):
            """Round 1 kills every participant but the smallest ID."""

            def mid_round_crashes(self, round_index, schedule):
                if round_index != 1:
                    return frozenset()
                return frozenset(sorted(schedule.participants)[1:])

        result = IteratedExecutor().run(
            HalvingAA(F(1, 4)), INPUTS, CrashStorm()
        )
        assert sorted(result.decisions) == [1]
        assert result.crashed == {2: 1, 3: 1}


class TestBoxIntegration:
    def test_box_outputs_recorded_in_trace(self):
        executor = IteratedExecutor(box=TestAndSetBox())
        result = executor.run(
            TwoProcessConsensusTAS(), {1: "a", 2: "b"}, FullSyncAdversary()
        )
        outputs = result.box_outputs[0]
        assert sorted(outputs) == [1, 2]
        assert sum(outputs.values()) == 1

    def test_solo_first_process_wins_box(self):
        executor = IteratedExecutor(box=TestAndSetBox())
        result = executor.run(
            TwoProcessConsensusTAS(),
            {1: "a", 2: "b"},
            SoloFirstAdversary(2),
        )
        assert result.box_outputs[0][2] == 1
        # Winner imposes its value.
        assert set(result.decisions.values()) == {"b"}
