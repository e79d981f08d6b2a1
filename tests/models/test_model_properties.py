"""Property-based tests tying schedules, models, and views together."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    SnapshotModel,
)
from repro.models.schedules import (
    distinct_schedules,
    immediate_snapshot_schedules,
    ordered_partitions,
    schedule_from_blocks,
)
from repro.topology import Simplex

id_sets = st.sets(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=4
)


@st.composite
def blocks_of(draw, ids):
    pool = sorted(ids)
    draw(st.randoms(use_true_random=False)).shuffle(pool)
    blocks = []
    while pool:
        size = draw(st.integers(min_value=1, max_value=len(pool)))
        blocks.append(pool[:size])
        pool = pool[size:]
    return blocks


@given(id_sets, st.data())
def test_blocks_roundtrip_through_matrix(ids, data):
    blocks = data.draw(blocks_of(ids))
    schedule = schedule_from_blocks(blocks)
    assert schedule.participants == frozenset(ids)
    assert schedule.is_immediate_snapshot()
    assert [set(b) for b in schedule.blocks()] == [set(b) for b in blocks]


@given(id_sets)
@settings(max_examples=25, deadline=None)
def test_is_schedules_satisfy_prefix_views(ids):
    for schedule in immediate_snapshot_schedules(ids):
        blocks = schedule.blocks()
        prefix = set()
        for block in blocks:
            prefix |= set(block)
            for process in block:
                assert schedule.view_of(process) == frozenset(prefix)


@given(st.sets(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_model_view_map_hierarchy(ids):
    iis_maps, snap_maps, collect_maps = (
        {
            frozenset(s.view_map().items())
            for s in distinct_schedules(kind, ids)
        }
        for kind in ("immediate", "snapshot", "collect")
    )
    assert iis_maps <= snap_maps <= collect_maps


@given(st.sets(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_every_view_contains_self_and_someone_sees_all(ids):
    for model in (CollectModel(), SnapshotModel(), ImmediateSnapshotModel()):
        for schedule in model.schedules(ids):
            view_map = schedule.view_map()
            assert set(view_map) == set(ids)
            for process, view in view_map.items():
                assert process in view
            assert any(view == frozenset(ids) for view in view_map.values())


@given(st.sets(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_one_round_complex_is_pure_for_iis(ids):
    model = ImmediateSnapshotModel()
    sigma = Simplex((i, i * 10) for i in sorted(ids))
    complex_ = model.one_round_complex(sigma)
    assert complex_.is_pure()
    assert complex_.dim == sigma.dim


@given(st.sets(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
@settings(max_examples=10, deadline=None)
def test_ordered_partition_blocks_partition_ids(ids):
    for blocks in ordered_partitions(ids):
        flattened = [p for block in blocks for p in block]
        assert sorted(flattened) == sorted(ids)
