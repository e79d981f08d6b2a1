"""Tests for illegal-fault injection, trace round-tripping, and replay."""

from fractions import Fraction

import pytest

from repro.algorithms import HalvingAA
from repro.errors import FaultInjectionError, RuntimeModelError
from repro.faults.campaign import _ChaosAdversary
from repro.faults.injectors import FaultTrace
from repro.models.schedules import schedule_from_blocks
from repro.runtime import (
    FullSyncAdversary,
    IteratedExecutor,
    RandomAdversary,
    ReplayAdversary,
    TraceRound,
)

INPUTS = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(1)}
SYNC3 = schedule_from_blocks([[1, 2, 3]])


class TestIllegalInjectors:
    """The chaos adversary's register faults break round 1."""

    def _run(self, mode):
        adversary = _ChaosAdversary(
            FullSyncAdversary(), seed=0, budget=0, illegal=mode
        )
        return IteratedExecutor().run(
            HalvingAA(Fraction(1, 4)), INPUTS, adversary
        )

    def test_lost_write_detected(self):
        with pytest.raises(FaultInjectionError):
            self._run("lost-write")

    def test_stale_snapshot_detected(self):
        with pytest.raises(FaultInjectionError):
            self._run("stale-snapshot")


class TestFaultTrace:
    def _trace(self):
        adversary = RandomAdversary(seed=11, crash_probability=0.3)
        result = IteratedExecutor().run(
            HalvingAA(Fraction(1, 8)), INPUTS, adversary
        )
        trace = FaultTrace(
            inputs=tuple((p, str(INPUTS[p])) for p in sorted(INPUTS)),
            rounds=tuple(result.trace),
            cell="aa",
        )
        return trace, result

    def test_json_round_trip_is_identity(self):
        trace, _ = self._trace()
        assert FaultTrace.from_json(trace.to_json()) == trace

    def test_json_encoding_is_stable(self):
        trace, _ = self._trace()
        assert trace.to_json() == trace.to_json()

    def test_views_must_match_the_groups(self):
        text = (
            '{"inputs": [[1, "0"]], "rounds": [{"blocks": [[1, 2]]}, '
            '{"blocks": [[1], [2, 3]], "views": [[1]]}]}'
        )
        with pytest.raises(RuntimeModelError, match=r"rounds\[1\]\.views"):
            FaultTrace.from_json(text)

    def test_parsed_inputs_restore_values(self):
        trace, _ = self._trace()
        assert trace.parsed_inputs(Fraction) == INPUTS

    def test_replay_reproduces_decisions(self):
        # Replay reads the rounds back from the trace's JSON.
        trace, original = self._trace()
        loaded = FaultTrace.from_json(trace.to_json())
        replayed = IteratedExecutor().run(
            HalvingAA(Fraction(1, 8)), INPUTS, ReplayAdversary(loaded.rounds)
        )
        assert replayed.decisions == original.decisions
        assert replayed.crashed == original.crashed
        assert replayed.trace == original.trace

    def test_replay_reproduces_mid_round_crashes(self):
        trace = FaultTrace(
            inputs=(),
            rounds=(TraceRound(blocks=((1, 2, 3),), mid_crashes=(2,)),),
        )
        result = IteratedExecutor().run(
            HalvingAA(Fraction(1, 8)), INPUTS, ReplayAdversary(trace.rounds)
        )
        assert result.crashed == {2: 1}
        assert result.trace[0] == trace.rounds[0]

    def test_replay_never_crashes_every_participant(self):
        trace = FaultTrace(
            inputs=(),
            rounds=(TraceRound(blocks=((1, 2, 3),), mid_crashes=(1, 2, 3)),),
        )
        doomed = ReplayAdversary(trace.rounds).mid_round_crashes(1, SYNC3)
        assert doomed == frozenset({2, 3})

    def test_benign_round_detection(self):
        assert TraceRound(blocks=((1, 2, 3),)).is_benign()
        assert not TraceRound(blocks=((1,), (2, 3))).is_benign()
        assert not TraceRound(blocks=((1, 2),), crashes=(3,)).is_benign()

    def test_replay_repairs_uncrashed_process(self):
        # Editing a crash out of the trace leaves later rounds without a
        # schedule slot for the revived process; replay must repair.
        trace, _ = self._trace()
        edited = FaultTrace(
            inputs=trace.inputs,
            rounds=tuple(
                TraceRound(
                    blocks=entry.blocks,
                    crashes=(),
                    mid_crashes=(),
                    box_choice=entry.box_choice,
                    views=entry.views,
                )
                for entry in trace.rounds
            ),
            cell=trace.cell,
        )
        result = IteratedExecutor().run(
            HalvingAA(Fraction(1, 8)), INPUTS, ReplayAdversary(edited.rounds)
        )
        assert sorted(result.decisions) == [1, 2, 3]


class TestReplayMatrixRounds:
    ACTIVE = frozenset({1, 2, 3})

    def test_rejected_matrix_round_replays_as_full_sync(self):
        # P_0 = {1} is not the participant set: condition (3) fails.
        trace = FaultTrace(
            inputs=(),
            rounds=(
                TraceRound(blocks=((1,), (2, 3)), views=((1,), (1, 2, 3))),
            ),
        )
        replay = ReplayAdversary(trace.rounds)
        assert replay.schedule(1, self.ACTIVE) == SYNC3

    def test_other_rebuild_errors_propagate(self, monkeypatch):
        class Boom(Exception):
            pass

        def broken(groups, views):
            raise Boom("not a schedule error")

        monkeypatch.setattr(
            "repro.runtime.adversary.OneRoundSchedule", broken
        )
        trace = FaultTrace(
            inputs=(),
            rounds=(
                TraceRound(
                    blocks=((1, 2), (3,)), views=((1, 2, 3), (1, 3))
                ),
            ),
        )
        with pytest.raises(Boom):
            ReplayAdversary(trace.rounds).schedule(1, self.ACTIVE)
