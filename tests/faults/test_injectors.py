"""Tests for fault injectors, trace round-tripping, and replay."""

from fractions import Fraction

import pytest

from repro.algorithms import HalvingAA
from repro.errors import FaultInjectionError, RuntimeModelError
from repro.faults.injectors import (
    AdversarialBoxInjector,
    CompositeInjector,
    CrashStormInjector,
    FaultTrace,
    LostWriteInjector,
    MidRoundCrashInjector,
    ReplayAdversary,
    ReplayInjector,
    StaleSnapshotInjector,
    TraceRound,
)
from repro.models.schedules import schedule_from_blocks
from repro.runtime import (
    FullSyncAdversary,
    IteratedExecutor,
    RandomAdversary,
)

INPUTS = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(1)}
SYNC3 = schedule_from_blocks([[1, 2, 3]])


class TestMidRoundCrashInjector:
    def test_deterministic_for_a_seed(self):
        def realized(seed):
            injector = MidRoundCrashInjector(
                seed=seed, probability=0.5, budget=2
            )
            return [
                injector.mid_round_crashes(r, SYNC3) for r in range(1, 5)
            ]

        assert realized(7) == realized(7)

    def test_budget_caps_total_crashes(self):
        injector = MidRoundCrashInjector(seed=0, probability=1.0, budget=1)
        total = set()
        for round_index in range(1, 6):
            total |= injector.mid_round_crashes(round_index, SYNC3)
        assert len(total) == 1

    def test_someone_always_survives(self):
        injector = MidRoundCrashInjector(seed=0, probability=1.0, budget=99)
        doomed = injector.mid_round_crashes(1, SYNC3)
        assert len(doomed) < 3

    def test_probability_validated(self):
        with pytest.raises(RuntimeModelError):
            MidRoundCrashInjector(seed=0, probability=1.5)


class TestCrashStormInjector:
    def test_kills_all_but_min_at_storm_round(self):
        injector = CrashStormInjector(storm_rounds=[2])
        assert injector.mid_round_crashes(1, SYNC3) == frozenset()
        assert injector.mid_round_crashes(2, SYNC3) == frozenset({2, 3})

    def test_budget_limits_the_storm(self):
        injector = CrashStormInjector(storm_rounds=[1], budget=1)
        assert len(injector.mid_round_crashes(1, SYNC3)) == 1

    def test_executor_survives_n_minus_1_crashes(self):
        algorithm = HalvingAA(Fraction(1, 4))
        result = IteratedExecutor(
            injector=CrashStormInjector(storm_rounds=[1])
        ).run(algorithm, INPUTS, FullSyncAdversary())
        assert sorted(result.decisions) == [1]
        assert result.crashed == {2: 1, 3: 1}


class TestIllegalInjectors:
    def test_lost_write_detected(self):
        executor = IteratedExecutor(
            injector=LostWriteInjector(round_index=1, victim=2)
        )
        with pytest.raises(FaultInjectionError):
            executor.run(
                HalvingAA(Fraction(1, 4)), INPUTS, FullSyncAdversary()
            )

    def test_stale_snapshot_detected(self):
        executor = IteratedExecutor(
            injector=StaleSnapshotInjector(round_index=1, victim=2)
        )
        with pytest.raises(FaultInjectionError):
            executor.run(
                HalvingAA(Fraction(1, 4)), INPUTS, FullSyncAdversary()
            )

    def test_composite_legality_is_conjunction(self):
        legal = MidRoundCrashInjector(seed=0)
        illegal = LostWriteInjector(round_index=1, victim=1)
        assert CompositeInjector(legal, legal).legal
        assert not CompositeInjector(legal, illegal).legal


class TestAdversarialBoxInjector:
    def test_choice_is_always_admissible(self):
        injector = AdversarialBoxInjector(seed=3)
        options = [{1: 0, 2: 1}, {1: 1, 2: 0}]
        for round_index in range(1, 30):
            chosen = injector.choose_assignment(
                round_index, SYNC3, options, options[0]
            )
            assert chosen in options


class TestFaultTrace:
    def _trace(self):
        adversary = RandomAdversary(seed=11, crash_probability=0.3)
        result = IteratedExecutor().run(
            HalvingAA(Fraction(1, 8)), INPUTS, adversary
        )
        return FaultTrace.from_execution(result, INPUTS, cell="aa"), result

    def test_json_round_trip_is_identity(self):
        trace, _ = self._trace()
        assert FaultTrace.from_json(trace.to_json()) == trace

    def test_json_encoding_is_stable(self):
        trace, _ = self._trace()
        assert trace.to_json() == trace.to_json()

    def test_parsed_inputs_restore_values(self):
        trace, _ = self._trace()
        assert trace.parsed_inputs(Fraction) == INPUTS

    def test_replay_reproduces_decisions(self):
        trace, original = self._trace()
        replayed = IteratedExecutor(injector=ReplayInjector(trace)).run(
            HalvingAA(Fraction(1, 8)), INPUTS, ReplayAdversary(trace)
        )
        assert replayed.decisions == original.decisions
        assert replayed.crashed == original.crashed
        assert [r.blocks for r in replayed.trace] == [
            r.blocks for r in original.trace
        ]

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
        result = IteratedExecutor(injector=ReplayInjector(edited)).run(
            HalvingAA(Fraction(1, 8)), INPUTS, ReplayAdversary(edited)
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
        assert ReplayAdversary(trace).schedule(1, self.ACTIVE) == SYNC3

    def test_other_rebuild_errors_propagate(self, monkeypatch):
        class Boom(Exception):
            pass

        def broken(groups, views):
            raise Boom("not a schedule error")

        monkeypatch.setattr(
            "repro.faults.injectors.OneRoundSchedule", broken
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
            ReplayAdversary(trace).schedule(1, self.ACTIVE)
