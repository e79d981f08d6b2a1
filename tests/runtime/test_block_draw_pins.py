"""Pinned draws of the immediate-snapshot random adversary.

``RandomAdversary`` and the operation-level immediate-snapshot round share
one random ordered-partition draw.  The recorded sequences fix which
blocks ``RandomAdversary`` returns for every draw of seeds 0-2, so a change
to that draw cannot silently change sampled executions, traces or campaign
reports.
"""

import pytest

from repro.runtime import RandomAdversary

# 40 rounds over {1,2,3}, then {1,2,3,4}, then {1,2}, per seed.  A draw is
# written as its temporal blocks "B_1|B_2|…", one digit per process.
PINNED_DRAWS = {
    0: (
        "1|23 12|3 123 23|1 123 12|3 123 123 23|1 123 123 123 123 123 1|23 "
        "2|1|3 3|2|1 1|23 123 123 23|1 12|3 3|1|2 12|3 2|3|1 123 123 123 "
        "123 13|2 123 123 1|2|3 1|2|3 23|1 123 123 2|1|3 12|3 3|1|2",
        "1234 4|123 123|4 134|2 3|124 24|13 12|4|3 134|2 2|13|4 1234 1234 "
        "234|1 134|2 1234 2|134 14|3|2 1|23|4 3|24|1 1|2|34 1|24|3 2|34|1 "
        "2|134 24|3|1 4|12|3 1234 234|1 3|1|4|2 1234 123|4 1|3|4|2 1|24|3 "
        "34|12 124|3 2|13|4 234|1 1234 1|23|4 123|4 3|4|1|2 3|4|12",
        "12 1|2 12 12 12 12 2|1 1|2 12 1|2 2|1 12 12 2|1 12 12 12 1|2 12 12 "
        "2|1 12 12 2|1 2|1 12 12 1|2 12 1|2 12 12 12 1|2 2|1 12 12 12 12 1|2",
    ),
    1: (
        "23|1 13|2 23|1 123 23|1 12|3 123 12|3 123 23|1 123 23|1 3|12 123 "
        "123 12|3 123 13|2 12|3 1|23 2|13 123 3|12 123 123 2|3|1 123 13|2 "
        "123 12|3 123 123 13|2 123 12|3 123 2|13 2|3|1 3|12 23|1",
        "234|1 1234 1|4|23 13|24 1234 1234 1234 1234 1234 1|234 2|14|3 "
        "34|12 2|134 14|3|2 13|24 1234 1|24|3 24|13 13|24 1234 4|3|1|2 "
        "134|2 124|3 123|4 23|1|4 4|123 134|2 1234 124|3 3|2|4|1 1234 "
        "14|3|2 123|4 124|3 234|1 1|3|24 23|14 14|23 3|14|2 23|14",
        "1|2 12 1|2 2|1 2|1 1|2 2|1 12 12 1|2 1|2 2|1 12 12 2|1 12 2|1 1|2 "
        "12 12 12 12 12 1|2 1|2 2|1 2|1 12 12 2|1 1|2 12 2|1 12 12 12 2|1 "
        "1|2 12 12",
    ),
    2: (
        "2|13 23|1 123 12|3 123 1|3|2 13|2 123 2|3|1 3|12 12|3 123 13|2 "
        "123 12|3 123 13|2 13|2 12|3 13|2 123 12|3 2|3|1 123 23|1 23|1 "
        "23|1 2|3|1 123 23|1 123 12|3 2|3|1 12|3 13|2 12|3 12|3 3|2|1 23|1 "
        "23|1",
        "12|3|4 23|4|1 14|3|2 34|12 124|3 1234 34|1|2 2|3|4|1 13|2|4 2|13|4 "
        "234|1 234|1 4|2|13 1234 1234 4|13|2 14|23 1234 1234 3|4|12 2|134 "
        "123|4 123|4 1234 14|23 1|234 23|4|1 23|14 1234 1|4|23 234|1 1234 "
        "1234 1234 1234 1234 1|234 1234 123|4 2|1|34",
        "12 2|1 12 12 2|1 12 12 2|1 12 12 12 12 2|1 12 1|2 12 12 1|2 12 12 "
        "12 1|2 1|2 1|2 12 12 1|2 1|2 1|2 1|2 2|1 12 12 1|2 12 12 12 1|2 12 "
        "1|2",
    ),
}
ACTIVE_SETS = (
    frozenset({1, 2, 3}),
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2}),
)


def encode(blocks):
    return "|".join("".join(map(str, sorted(block))) for block in blocks)


@pytest.mark.parametrize("seed", sorted(PINNED_DRAWS))
def test_draws_match_pinned_sequence(seed):
    adversary = RandomAdversary(seed=seed)
    for active, expected in zip(ACTIVE_SETS, PINNED_DRAWS[seed]):
        drawn = [
            encode(adversary.schedule(round_index, active).blocks())
            for round_index in range(1, 41)
        ]
        assert drawn == expected.split()
