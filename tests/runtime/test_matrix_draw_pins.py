"""Pinned draws of the snapshot/collect matrix adversary.

The recorded sequences fix which matrix ``RandomMatrixAdversary`` returns
for every draw of seeds 0-2, so a change to how the pool of schedules is
built or shared cannot silently change sampled executions, traces or
campaign reports.
"""

import string

import pytest

from repro.runtime import RandomMatrixAdversary

ACTIVE = frozenset({1, 2, 3})

# Pinned draws of RandomMatrixAdversary: 40 rounds over {1,2,3}, then
# {1,2}, then {1}, for seeds 0-2.  A matrix is written "group:view ..."
# (one digit per process); each draw string indexes VOCABULARY[kind] by
# the letters of string.ascii_letters.
VOCABULARY = {
    "snapshot": [
        "1:123 3:23 2:2", "13:123 2:23", "23:123 1:1", "12:123 3:13",
        "23:123 1:13", "1:123 2:23 3:3", "12:123 3:23", "13:123 2:2",
        "2:123 1:13 3:3", "13:123 2:12", "23:123 1:12", "3:123 12:12",
        "2:123 13:13", "2:123 3:13 1:1", "12:123 3:3", "1:123 23:23",
        "3:123 2:12 1:1", "1:12 2:2", "12:12", "2:12 1:1", "1:1",
        "123:123", "3:123 1:12 2:2",
    ],
    "collect": [
        "12:123 3:23", "2:123 1:13 3:3", "12:123 3:3", "23:123 1:1",
        "13:123 2:12", "13:123 2:23", "1:123 3:23 2:2", "1:123 3:23 2:12",
        "12:123 3:13", "1:123 23:23", "3:123 1:12 2:2", "23:123 1:12",
        "3:123 12:12", "1:123 2:23 3:3", "1:123 2:23 3:13", "2:123 13:13",
        "2:123 1:13 3:23", "2:123 3:13 1:1", "23:123 1:13", "123:123",
        "3:123 2:12 1:13", "1:12 2:2", "12:12", "2:12 1:1", "1:1",
        "13:123 2:2", "3:123 2:12 1:1", "3:123 1:12 2:23",
        "2:123 3:13 1:12",
    ],
}
PINNED_DRAWS = {
    ("snapshot", 0): (
        "abcdefagfhijekgkldmkglnofmlhbojmfpedcmqn",
        "rsrrrtrsstrsrttrtttrsttsrstsrsrtrsrtrrrs",
        "uuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuu",
    ),
    ("snapshot", 1): (
        "kindlfpfajlfqabqpdviloqqqmqajbqevpfmvhvv",
        "sstsrrttrrstrsrrrsrrtssrsrsrtstrssrtsrrr",
        "uuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuu",
    ),
    ("snapshot", 2): (
        "cnnhwgdjciwbaehmpedcqhpoabewmwvvqwowkeeh",
        "rrrtssrrsrssstsrrsrrtsssrrsrsssrrrrssrts",
        "uuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuu",
    ),
    ("collect", 0): (
        "abcdefgahgijkflhlbmneopnlhmqrstgomictnuk",
        "vwwvwxvxxvwvvvxvwwxvwvxxvxxxvwxxwvwxwvwv",
        "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy",
    ),
    ("collect", 1): (
        "ljbremgbzguakmgAacnbbApzeqBjmtAAAuoAaskc",
        "vxvxwwvxwxvxwwxwvvxxvvwxvwvvvwvvxwwvwvwv",
        "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy",
    ),
    ("collect", 2): (
        "drriCqshenkndjsCcuaqfiozfedAiztacfCoCBBA",
        "xwxxvvwvvvxwwvvwvwwwxwvvwvvxwwwvvwvwwwvv",
        "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy",
    ),
}


def decode(text):
    """``"23:123 1:12"`` → ``(groups, views)`` as tuples of frozensets."""
    pairs = [part.split(":") for part in text.split()]
    return (
        tuple(frozenset(map(int, group)) for group, _ in pairs),
        tuple(frozenset(map(int, view)) for _, view in pairs),
    )


class TestPinnedDraws:
    @pytest.mark.parametrize(
        "key",
        sorted(PINNED_DRAWS),
        ids=lambda key: f"{key[0]}-seed{key[1]}",
    )
    def test_draws_match_pinned_sequence(self, key):
        kind, seed = key
        adversary = RandomMatrixAdversary(kind, seed=seed)
        for active, expected in zip(
            (ACTIVE, frozenset({1, 2}), frozenset({1})), PINNED_DRAWS[key]
        ):
            drawn = [
                adversary.schedule(round_index, active)
                for round_index in range(1, 41)
            ]
            assert [(s.groups, s.views) for s in drawn] == [
                decode(VOCABULARY[kind][string.ascii_letters.index(c)])
                for c in expected
            ]
