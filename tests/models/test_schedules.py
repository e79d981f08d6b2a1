"""Unit tests for one-round schedules (the Appendix A.3.4 matrices)."""

import math

import pytest

from repro.errors import ScheduleError
from repro.models.schedules import (
    OneRoundSchedule,
    collect_schedules,
    distinct_schedules,
    immediate_snapshot_schedules,
    ordered_partitions,
    schedule_from_blocks,
    snapshot_schedules,
)
from repro.models.schedules import _BLOCK_SCHEDULES, _block_schedule

FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541}

#: What each model's schedules claim beyond the matrix conditions (1)–(5)
#: the constructor enforces: immediate snapshots (footnote 2) are
#: snapshots, snapshot views chain (footnote 1), collect claims nothing.
POOL_CLAIMS = {
    "immediate": ("is_immediate_snapshot", "is_snapshot"),
    "snapshot": ("is_snapshot",),
    "collect": (),
}


def fs(*items):
    return frozenset(items)


class TestScheduleValidation:
    def test_valid_matrix(self):
        schedule = OneRoundSchedule(
            groups=(fs(1), fs(2)), views=(fs(1, 2), fs(2))
        )
        assert schedule.participants == fs(1, 2)

    def test_condition_2_views_within_participants(self):
        # P_1 = {2, 9} mentions process 9 which is in no group.
        with pytest.raises(ScheduleError):
            OneRoundSchedule(
                groups=(fs(1), fs(2)), views=(fs(1, 2), fs(2, 9))
            )

    def test_condition_3_p0_equals_participants(self):
        with pytest.raises(ScheduleError):
            OneRoundSchedule(groups=(fs(1), fs(2)), views=(fs(1), fs(2)))

    def test_condition_3_named_in_the_error(self):
        # Conditions (2) and (5) imply (3), so only the message shows
        # that (3) is checked on its own.
        with pytest.raises(ScheduleError, match=r"condition \(3\)"):
            OneRoundSchedule(groups=(fs(1), fs(2)), views=(fs(1), fs(2)))

    def test_matrix_without_groups_rejected(self):
        with pytest.raises(ScheduleError, match="at least one group"):
            OneRoundSchedule(groups=(), views=())

    def test_condition_4_groups_partition(self):
        with pytest.raises(ScheduleError):
            OneRoundSchedule(
                groups=(fs(1, 2), fs(2)), views=(fs(1, 2), fs(2))
            )

    def test_condition_5_suffix_containment(self):
        # P_1 = {2} must contain I_1 ∪ I_2 = {2, 3}.
        with pytest.raises(ScheduleError):
            OneRoundSchedule(
                groups=(fs(1), fs(2), fs(3)),
                views=(fs(1, 2, 3), fs(2), fs(3)),
            )

    def test_empty_group_rejected(self):
        with pytest.raises(ScheduleError):
            OneRoundSchedule(groups=(fs(),), views=(fs(),))

    def test_mutable_sets_coerced_to_hashable_value(self):
        mutable = OneRoundSchedule(groups=({1, 2},), views=({1, 2},))
        frozen = OneRoundSchedule(groups=(fs(1, 2),), views=(fs(1, 2),))
        assert mutable == frozen
        assert hash(mutable) == hash(frozen)
        assert type(mutable.groups) is tuple
        assert all(type(g) is frozenset for g in mutable.groups)
        assert all(type(v) is frozenset for v in mutable.views)

    def test_coerced_lists_still_validated(self):
        with pytest.raises(ScheduleError):
            OneRoundSchedule(groups=[{1}, {2}], views=[{1}, {2}])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ScheduleError):
            OneRoundSchedule(groups=(fs(1),), views=(fs(1), fs(1)))


class TestScheduleSemantics:
    def test_view_map(self):
        schedule = schedule_from_blocks([[1], [2, 3]])
        views = schedule.view_map()
        assert views[1] == fs(1)
        assert views[2] == views[3] == fs(1, 2, 3)

    def test_view_of_unknown_process(self):
        schedule = schedule_from_blocks([[1]])
        with pytest.raises(ScheduleError):
            schedule.view_of(9)

    def test_blocks_roundtrip(self):
        blocks = (fs(2), fs(1, 3))
        schedule = schedule_from_blocks(blocks)
        assert schedule.blocks() == blocks

    def test_blocks_roundtrip_all_three_process_schedules(self):
        # blocks() ∘ schedule_from_blocks is the identity on every
        # 3-process immediate-snapshot schedule (matrix ↔ ordered blocks).
        for schedule in immediate_snapshot_schedules([1, 2, 3]):
            rebuilt = schedule_from_blocks(schedule.blocks())
            assert rebuilt.blocks() == schedule.blocks()
            assert rebuilt.view_map() == schedule.view_map()

    def test_blocks_rejected_for_non_is(self):
        # Cyclic-free collect-only matrix: 1 sees all, 2 sees {2,3}, 3 sees
        # {1,2,3}? Build a snapshot-violating one: groups ({1},{3},{2}),
        # views ({123},{23},{12}): IS condition fails (2 ∈ P_1 but P_2 ⊄ P_1).
        schedule = OneRoundSchedule(
            groups=(fs(1), fs(3), fs(2)),
            views=(fs(1, 2, 3), fs(2, 3), fs(1, 2)),
        )
        assert not schedule.is_immediate_snapshot()
        with pytest.raises(ScheduleError):
            schedule.blocks()

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_blocks([[1, 2], [2]])

    def test_empty_blocks_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_blocks([])
        with pytest.raises(ScheduleError):
            schedule_from_blocks([[]])


class TestComputedOnce:
    """What a schedule derives from its matrix is kept, never leaked."""

    NOT_IS = OneRoundSchedule(
        groups=(fs(1), fs(3), fs(2)),
        views=(fs(1, 2, 3), fs(2, 3), fs(1, 2)),
    )

    @pytest.mark.parametrize(
        "schedule",
        [schedule_from_blocks([[2], [1, 3]]), NOT_IS],
        ids=["blocks", "matrix"],
    )
    def test_view_map_is_a_fresh_dict(self, schedule):
        before = schedule.view_map()
        mutated = schedule.view_map()
        mutated[1] = fs(9)
        del mutated[2]
        assert schedule.view_map() == before
        assert schedule.view_map() is not schedule.view_map()
        assert schedule.view_of(1) == before[1]
        assert schedule.view_of(2) == before[2]

    @pytest.mark.parametrize(
        "schedule",
        [schedule_from_blocks([[17], [9, 2]]), NOT_IS],
        ids=["blocks", "matrix"],
    )
    def test_ordered_participants_are_sorted_once(self, schedule):
        ordered = schedule.ordered_participants
        assert ordered == tuple(sorted(schedule.participants))
        assert schedule.ordered_participants is ordered

    def test_blocks_of_a_non_is_matrix_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ScheduleError):
                self.NOT_IS.blocks()
            assert not self.NOT_IS.is_immediate_snapshot()

    @pytest.mark.parametrize("kind", ["immediate", "snapshot", "collect"])
    def test_pooled_schedule_equals_its_rebuilt_matrix(self, kind):
        for pooled in distinct_schedules(kind, [1, 2, 3]):
            # Fill the pooled schedule's derived data, not the rebuilt one's.
            pooled.ordered_participants
            pooled.view_map()
            pooled.as_tuples()
            if pooled.is_immediate_snapshot():
                pooled.blocks()
            rebuilt = OneRoundSchedule(pooled.groups, pooled.views)
            assert rebuilt == pooled
            assert hash(rebuilt) == hash(pooled)
            assert rebuilt.as_tuples() == pooled.as_tuples()
            assert rebuilt.is_immediate_snapshot() == (
                pooled.is_immediate_snapshot()
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_block_schedules_match_their_matrix(self, n):
        # schedule_from_blocks records its blocks up front; they must be
        # the blocks the matrix itself yields.
        for blocks in ordered_partitions(range(1, n + 1)):
            schedule = schedule_from_blocks(blocks)
            rebuilt = OneRoundSchedule(schedule.groups, schedule.views)
            assert schedule.is_immediate_snapshot()
            assert schedule.blocks() == rebuilt.blocks() == blocks
            assert schedule.as_tuples() == rebuilt.as_tuples()

    def test_as_tuples(self):
        assert schedule_from_blocks([[3], [2, 1]]).as_tuples() == (
            ((3,), (1, 2)),
            None,
        )
        assert self.NOT_IS.as_tuples() == (
            ((1,), (3,), (2,)),
            ((1, 2, 3), (2, 3), (1, 2)),
        )

    def test_repr_shows_only_the_matrix(self):
        schedule = schedule_from_blocks([[2], [1, 3]])
        schedule.view_map()
        schedule.as_tuples()
        assert repr(schedule) == (
            "OneRoundSchedule(groups=(frozenset({1, 3}), frozenset({2})), "
            "views=(frozenset({1, 2, 3}), frozenset({2})))"
        )
        self.NOT_IS.view_map()
        assert repr(self.NOT_IS) == (
            "OneRoundSchedule(groups=(frozenset({1}), frozenset({3}), "
            "frozenset({2})), views=(frozenset({1, 2, 3}), "
            "frozenset({2, 3}), frozenset({1, 2})))"
        )


class TestBlockInterning:
    """Equal block lists share one validated schedule, in a bounded table."""

    def test_equal_block_lists_share_one_schedule(self):
        first = schedule_from_blocks([[2], [1, 3]])
        assert schedule_from_blocks(((2,), (3, 1))) is first
        assert schedule_from_blocks([{2}, fs(1, 3)]) is first
        assert schedule_from_blocks(([2], {3, 1})) is first

    def test_block_order_is_part_of_the_key(self):
        assert schedule_from_blocks([[1], [2]]) is not schedule_from_blocks(
            [[2], [1]]
        )

    def test_immediate_pool_holds_the_interned_schedules(self):
        # Ids no other test uses, so the pool is built here, next to the
        # lookups, and no entry of it is evicted in between.
        pool = distinct_schedules("immediate", [101, 102, 103])
        assert len(pool) == FUBINI[3]
        for schedule in pool:
            assert schedule_from_blocks(schedule.blocks()) is schedule

    @pytest.mark.parametrize(
        "blocks", [[], [[]], [[1, 2], [2]], [[1], [], [2]]]
    )
    def test_invalid_blocks_raise_every_time_and_are_not_kept(self, blocks):
        # An empty table, so a stored entry would show even where a full
        # table would evict one for it.
        _block_schedule.cache_clear()
        for _ in range(2):
            with pytest.raises(ScheduleError):
                schedule_from_blocks(blocks)
        assert _block_schedule.cache_info().currsize == 0

    def test_table_stays_at_its_bound(self):
        count = 0
        for blocks in ordered_partitions(range(1, 7)):
            schedule = schedule_from_blocks(blocks)
            assert schedule.blocks() == blocks
            count += 1
        assert count == 4683
        assert _block_schedule.cache_info().currsize == _BLOCK_SCHEDULES
        # Every immediate-snapshot schedule of four processes and of
        # their subsets fits.
        assert _BLOCK_SCHEDULES >= sum(
            FUBINI[size] * math.comb(4, size) for size in range(1, 5)
        )


class TestClassPredicates:
    def test_synchronous_schedule_is_everything(self):
        schedule = schedule_from_blocks([[1, 2, 3]])
        assert schedule.is_snapshot()
        assert schedule.is_immediate_snapshot()

    def test_snapshot_chain_condition(self):
        chain = OneRoundSchedule(
            groups=(fs(1), fs(2)), views=(fs(1, 2), fs(2))
        )
        assert chain.is_snapshot()
        crossed = OneRoundSchedule(
            groups=(fs(1), fs(3), fs(2)),
            views=(fs(1, 2, 3), fs(2, 3), fs(1, 2)),
        )
        assert not crossed.is_snapshot()

    def test_snapshot_but_not_immediate(self):
        # Views chain but containment-transitivity fails: both 2 and 3 see
        # {2,3}... use the classic: 1 sees all; 2 sees {1,2,3}; 3 sees {3}?
        # Simpler: groups ({1,2},{3}) with views ({123},{123}? ...) — build
        # from matrices: I_0={1}, I_1={2}, I_2={3}; P=( {123}, {123}, {3} ).
        schedule = OneRoundSchedule(
            groups=(fs(1), fs(2), fs(3)),
            views=(fs(1, 2, 3), fs(1, 2, 3), fs(3)),
        )
        assert schedule.is_snapshot()
        assert schedule.is_immediate_snapshot()  # this one IS immediate
        # A genuinely snapshot-only example (Fig. 8(c)'s shape): process 1
        # sees {1,2} although process 2 sees everything — views chain, but
        # 2 ∈ V_1 with V_2 ⊄ V_1 violates immediacy.
        snap_only = OneRoundSchedule(
            groups=(fs(2, 3), fs(1)),
            views=(fs(1, 2, 3), fs(1, 2)),
        )
        assert snap_only.is_snapshot()
        assert not snap_only.is_immediate_snapshot()


class TestEnumerations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ordered_partition_counts_are_fubini(self, n):
        found = list(ordered_partitions(range(1, n + 1)))
        assert len(found) == FUBINI[n]
        assert len(set(found)) == FUBINI[n]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_immediate_snapshot_schedules_valid(self, n):
        ids = range(1, n + 1)
        for schedule in immediate_snapshot_schedules(ids):
            assert schedule.is_immediate_snapshot()
            assert schedule.is_snapshot()
        # The shared pools the models read must keep those claims too.
        for kind, claims in POOL_CLAIMS.items():
            for schedule in distinct_schedules(kind, ids):
                assert schedule.participants == frozenset(ids)
                for claim in claims:
                    assert getattr(schedule, claim)(), (kind, schedule)

    def test_snapshot_schedules_subset_of_collect(self):
        collect = {s.view_map()[1] for s in collect_schedules([1, 2])}
        snap = {s.view_map()[1] for s in snapshot_schedules([1, 2])}
        assert snap <= collect

    @pytest.mark.parametrize(
        "n, expected_facets", [(1, 1), (2, 3), (3, 13), (4, 75)]
    )
    def test_distinct_is_view_maps(self, n, expected_facets):
        pool = distinct_schedules("immediate", range(1, n + 1))
        assert len(pool) == expected_facets

    @pytest.mark.parametrize("n, expected", [(2, 3), (3, 19)])
    def test_distinct_snapshot_view_maps(self, n, expected):
        pool = distinct_schedules("snapshot", range(1, n + 1))
        assert len(pool) == expected

    @pytest.mark.parametrize("n, expected", [(2, 3), (3, 25)])
    def test_distinct_collect_view_maps(self, n, expected):
        pool = distinct_schedules("collect", range(1, n + 1))
        assert len(pool) == expected

    def test_every_collect_view_contains_self(self):
        for schedule in distinct_schedules("collect", [1, 2, 3]):
            for process, view in schedule.view_map().items():
                assert process in view

    def test_someone_sees_everything_in_collect(self):
        # Condition (3): P_0 = I — the last writer sees every write.
        for schedule in distinct_schedules("collect", [1, 2, 3]):
            view_map = schedule.view_map()
            assert any(view == fs(1, 2, 3) for view in view_map.values())

    def test_empty_enumerations(self):
        assert list(ordered_partitions([])) == []
        assert list(collect_schedules([])) == []


ENUMERATORS = {
    "immediate": immediate_snapshot_schedules,
    "snapshot": snapshot_schedules,
    "collect": collect_schedules,
}


def brute_force_distinct(kind, ids):
    """First matrix per view map, sorted by the per-process view tuples."""
    first = {}
    for schedule in ENUMERATORS[kind](ids):
        key = tuple(
            sorted(
                (process, tuple(sorted(view)))
                for process, view in schedule.view_map().items()
            )
        )
        if key not in first:
            first[key] = schedule
    return [first[key] for key in sorted(first)]


class TestDistinctSchedules:
    @pytest.mark.parametrize("kind", sorted(ENUMERATORS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force_dedup(self, kind, n):
        ids = range(1, n + 1)
        pool = distinct_schedules(kind, ids)
        expected = brute_force_distinct(kind, ids)
        # The kept matrices themselves, in order — not only their views.
        assert [(s.groups, s.views) for s in pool] == [
            (s.groups, s.views) for s in expected
        ]

    @pytest.mark.parametrize(
        "kind, expected",
        [("immediate", 13), ("snapshot", 19), ("collect", 25)],
    )
    def test_three_process_counts(self, kind, expected):
        assert len(distinct_schedules(kind, [1, 2, 3])) == expected

    def test_pool_is_shared_and_immutable(self):
        first = distinct_schedules("collect", [3, 2, 1])
        assert distinct_schedules("collect", frozenset({1, 2, 3})) is first
        assert isinstance(first, tuple)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError):
            distinct_schedules("quantum", [1, 2])
