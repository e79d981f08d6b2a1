"""Unit tests for the snapshot/collect matrix adversaries."""

from fractions import Fraction

import pytest

from repro.algorithms import HalvingAA
from repro.errors import RuntimeModelError
from repro.models import schedules
from repro.models.schedules import (
    OneRoundSchedule,
    distinct_schedules,
    schedule_from_blocks,
)
from repro.runtime import (
    IteratedExecutor,
    RandomMatrixAdversary,
    ReplayAdversary,
    TraceRound,
)


def F(num, den=1):
    return Fraction(num, den)


def replaying(*matrices):
    """Replay one matrix per round, in the form execution traces keep."""
    rounds = []
    for matrix in matrices:
        blocks, views = matrix.as_tuples()
        rounds.append(TraceRound(blocks, views=views))
    return ReplayAdversary(rounds)


ACTIVE = frozenset({1, 2, 3})

class TestRandomMatrixAdversary:
    def test_unknown_kind_rejected(self):
        with pytest.raises(RuntimeModelError):
            RandomMatrixAdversary(kind="quantum")

    def test_snapshot_schedules_are_snapshot(self):
        adversary = RandomMatrixAdversary("snapshot", seed=1)
        for round_index in range(1, 30):
            schedule = adversary.schedule(round_index, ACTIVE)
            assert schedule.is_snapshot()
            assert schedule.participants == ACTIVE

    def test_collect_reaches_non_snapshot_views(self):
        adversary = RandomMatrixAdversary("collect", seed=2)
        kinds = set()
        for round_index in range(1, 200):
            schedule = adversary.schedule(round_index, ACTIVE)
            kinds.add(schedule.is_snapshot())
        assert kinds == {True, False}

    def test_deterministic_per_seed(self):
        left = RandomMatrixAdversary("collect", seed=5)
        right = RandomMatrixAdversary("collect", seed=5)
        for round_index in range(1, 10):
            assert left.schedule(round_index, ACTIVE) == right.schedule(
                round_index, ACTIVE
            )

    def test_pool_sizes_match_models(self):
        assert len(distinct_schedules("collect", ACTIVE)) == 25
        assert len(distinct_schedules("snapshot", ACTIVE)) == 19


    def test_pool_built_once_per_key_across_instances(self, monkeypatch):
        monkeypatch.setattr(schedules, "_DISTINCT", {})
        built = []
        enumerate_collect = schedules._ENUMERATORS["collect"]

        def counting(ids):
            built.append(frozenset(ids))
            return enumerate_collect(ids)

        monkeypatch.setitem(schedules._ENUMERATORS, "collect", counting)
        for seed in (0, 1):
            adversary = RandomMatrixAdversary("collect", seed=seed)
            for round_index in range(1, 6):
                adversary.schedule(round_index, ACTIVE)
                adversary.schedule(round_index, frozenset({1, 2}))
        assert built == [ACTIVE, frozenset({1, 2})]


class TestMatrixReplay:
    def test_replays(self):
        matrices = [
            schedule_from_blocks([[1], [2, 3]]),
            schedule_from_blocks([[1, 2, 3]]),
        ]
        adversary = replaying(*matrices)
        assert adversary.schedule(1, ACTIVE) == matrices[0]
        assert adversary.schedule(2, ACTIVE) == matrices[1]

    @pytest.mark.parametrize("round_index", [0, -1])
    def test_rounds_before_the_first_rejected(self, round_index):
        adversary = replaying(
            schedule_from_blocks([[1], [2]]), schedule_from_blocks([[1, 2]])
        )
        with pytest.raises(RuntimeModelError):
            adversary.schedule(round_index, frozenset({1, 2}))


class TestHalvingUnderWeakerModels:
    """The empirical finding of E-ablation: Eq. (3) survives weaker models
    at n = 3 — the lower bound proved in IIS transfers a fortiori."""

    @pytest.mark.parametrize("kind", ["snapshot", "collect"])
    def test_halving_correct_under_weaker_schedules(self, kind):
        eps = F(1, 4)
        algorithm = HalvingAA(eps)
        inputs = {1: F(0), 2: F(1, 2), 3: F(1)}
        executor = IteratedExecutor()
        for seed in range(100):
            adversary = RandomMatrixAdversary(kind, seed=seed)
            result = executor.run(algorithm, inputs, adversary)
            values = list(result.decisions.values())
            assert max(values) - min(values) <= eps
            assert min(values) >= F(0) and max(values) <= F(1)

    def test_exhaustive_two_round_collect_sweep(self):
        eps = F(1, 4)
        algorithm = HalvingAA(eps)
        inputs = {1: F(0), 2: F(1, 2), 3: F(1)}
        executor = IteratedExecutor()
        pool = distinct_schedules("collect", [1, 2, 3])
        for first in pool:
            for second in pool:
                result = executor.run(
                    algorithm, inputs, replaying(first, second)
                )
                values = list(result.decisions.values())
                assert max(values) - min(values) <= eps

    def test_trace_records_matrix_groups_for_non_is(self):
        eps = F(1, 2)
        algorithm = HalvingAA(eps)
        inputs = {1: F(0), 2: F(1, 2), 3: F(1)}
        # A snapshot-only schedule: {2,3} see everything, 1 sees {1,2}.
        snap_only = OneRoundSchedule(
            groups=(frozenset({2, 3}), frozenset({1})),
            views=(frozenset({1, 2, 3}), frozenset({1, 2})),
        )
        result = IteratedExecutor().run(
            algorithm, inputs, replaying(snap_only)
        )
        record = result.trace[0]
        views = OneRoundSchedule(record.blocks, record.views).view_map()
        assert views[1] == {1, 2}
        assert views[2] == {1, 2, 3}
