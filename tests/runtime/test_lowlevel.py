"""Operation-level executions must match the matrix-generated view maps.

These tests connect the runtime to the combinatorial models: every view map
a random interleaving produces is one of the paper's matrices (soundness),
and the standard adversaries reach all of them for small ``n``
(completeness).
"""

import random

import pytest

from repro.models.schedules import distinct_schedules
from repro.runtime import (
    random_collect_round,
    random_immediate_snapshot_round,
    random_snapshot_round,
)

IDS = [1, 2, 3]
VALUES = {1: "a", 2: "b", 3: "c"}


def normalize(view_map):
    return tuple(
        (process, tuple(sorted(view)))
        for process, view in sorted(view_map.items())
    )


def pool_maps(kind, ids=IDS):
    return {normalize(s.view_map()) for s in distinct_schedules(kind, ids)}


@pytest.fixture(scope="module")
def collect_maps():
    return pool_maps("collect")


@pytest.fixture(scope="module")
def snapshot_maps():
    return pool_maps("snapshot")


@pytest.fixture(scope="module")
def is_maps():
    return pool_maps("immediate")


@pytest.mark.parametrize(
    "runner",
    [
        random_collect_round,
        random_snapshot_round,
        random_immediate_snapshot_round,
    ],
)
def test_a_written_none_is_seen(runner):
    rng = random.Random(3)
    for _ in range(50):
        views = runner(IDS, {1: None, 2: "b", 3: "c"}, rng)
        for process, view in views.items():
            assert process in view


class TestSoundness:
    def test_collect_rounds_within_matrices(self, collect_maps):
        rng = random.Random(7)
        for _ in range(400):
            views = random_collect_round(IDS, VALUES, rng)
            assert normalize(views) in collect_maps

    def test_snapshot_rounds_within_snapshot_matrices(self, snapshot_maps):
        rng = random.Random(11)
        for _ in range(400):
            views = random_snapshot_round(IDS, VALUES, rng)
            assert normalize(views) in snapshot_maps

    def test_is_rounds_within_is_matrices(self, is_maps):
        rng = random.Random(13)
        for _ in range(400):
            views = random_immediate_snapshot_round(IDS, VALUES, rng)
            assert normalize(views) in is_maps

    def test_every_process_sees_itself(self):
        rng = random.Random(17)
        for _ in range(100):
            for runner in (
                random_collect_round,
                random_snapshot_round,
                random_immediate_snapshot_round,
            ):
                views = runner(IDS, VALUES, rng)
                for process, view in views.items():
                    assert process in view


class TestCompleteness:
    def test_random_collect_reaches_all_two_proc_views(self):
        rng = random.Random(23)
        reached = set()
        for _ in range(500):
            reached.add(normalize(random_collect_round([1, 2], VALUES, rng)))
        assert reached == pool_maps("collect", [1, 2])

    def test_random_is_reaches_all_three_proc_views(self, is_maps):
        rng = random.Random(29)
        reached = set()
        for _ in range(3000):
            reached.add(
                normalize(random_immediate_snapshot_round(IDS, VALUES, rng))
            )
        assert reached == is_maps

    def test_random_snapshot_covers_non_is_views(self, snapshot_maps, is_maps):
        # The snapshot executor must reach at least one chain view map
        # outside IIS (the Fig. 8(c) region).
        rng = random.Random(31)
        reached = set()
        for _ in range(3000):
            reached.add(normalize(random_snapshot_round(IDS, VALUES, rng)))
        assert reached <= snapshot_maps
        assert reached - is_maps
