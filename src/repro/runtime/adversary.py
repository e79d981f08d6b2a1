"""Adversarial schedulers for the iterated executor.

An adversary controls everything the model leaves open: which processes
crash before each round, how the surviving processes are split into
immediate-snapshot blocks, which of them crash between their write and
their snapshot, and — in augmented models — which admissible black-box
assignment the round's object realizes.  It also supplies the round's
register array, so a chaos adversary can hand the executor a faulty one
and check that the executor's cross-checks catch it.

Wait-freedom means algorithms must cope with *every* adversary here, from
the fully synchronous one to crash-heavy randomized ones.  For exhaustive
verification on small instances, :func:`all_schedule_sequences` enumerates
every ``t``-round block schedule.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import product

from repro.errors import RuntimeModelError
from repro.models.schedules import (
    OneRoundSchedule,
    distinct_schedules,
    ordered_partitions,
    schedule_from_blocks,
)
from repro.runtime.registers import RegisterArray

__all__ = [
    "Adversary",
    "RandomAdversary",
    "FullSyncAdversary",
    "SoloFirstAdversary",
    "FixedScheduleAdversary",
    "RandomMatrixAdversary",
    "FixedMatrixAdversary",
    "all_schedule_sequences",
    "random_ordered_partition",
]

Blocks = tuple[frozenset[int], ...]


def random_ordered_partition(
    ids: Sequence[int], rng: random.Random
) -> list[tuple[int, ...]]:
    """A uniform-ish random ordered partition of ``ids`` (temporal blocks).

    Shuffles ``ids`` and cuts the shuffle into consecutive blocks of
    random sizes; the RNG stream depends on the order of ``ids``.
    """
    pool = list(ids)
    rng.shuffle(pool)
    blocks: list[tuple[int, ...]] = []
    index = 0
    while index < len(pool):
        size = rng.randint(1, len(pool) - index)
        blocks.append(tuple(pool[index : index + size]))
        index += size
    return blocks


class Adversary(ABC):
    """The scheduler's interface: the model's open decisions, per round."""

    def crashes(
        self, round_index: int, active: frozenset[int]
    ) -> frozenset[int]:
        """Processes that crash before this round (default: none).

        At least one process must survive the whole execution.
        """
        return frozenset()

    @abstractmethod
    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        """The immediate-snapshot schedule of the round."""

    def mid_round_crashes(
        self, round_index: int, schedule: OneRoundSchedule
    ) -> frozenset[int]:
        """Processes that crash between their write and their snapshot.

        Their writes stay visible to the survivors; they get no view and
        never step again (default: none).
        """
        return frozenset()

    def register_array(
        self, round_index: int, ids: tuple[int, ...]
    ) -> RegisterArray:
        """The round's register array ``M_r`` (default: a faithful one)."""
        return RegisterArray(ids)

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Mapping[int, object]],
    ) -> Mapping[int, object]:
        """Pick the black box's output assignment (default: first option)."""
        return options[0]


class FullSyncAdversary(Adversary):
    """Every round is a single block: the synchronous, failure-free run."""

    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        return schedule_from_blocks([active])


class SoloFirstAdversary(Adversary):
    """A chosen process always runs first, alone, in every round.

    This is the adversary behind the speedup theorem's solo-execution
    hypothesis.
    """

    def __init__(self, process: int) -> None:
        self._process = process

    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        if self._process not in active:
            return schedule_from_blocks([active])
        rest = active - {self._process}
        blocks: list[Iterable[int]] = [[self._process]]
        if rest:
            blocks.append(rest)
        return schedule_from_blocks(blocks)


class FixedScheduleAdversary(Adversary):
    """Replay an explicit list of block sequences, one per round."""

    def __init__(self, per_round_blocks: Sequence[Sequence[Iterable[int]]]):
        self._blocks = [
            tuple(frozenset(block) for block in round_blocks)
            for round_blocks in per_round_blocks
        ]

    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        if not 1 <= round_index <= len(self._blocks):
            raise RuntimeModelError(
                f"fixed adversary has no schedule for round {round_index}"
            )
        blocks = self._blocks[round_index - 1]
        trimmed = [block & active for block in blocks]
        trimmed = [block for block in trimmed if block]
        if frozenset().union(*trimmed) != active:
            raise RuntimeModelError(
                f"fixed schedule for round {round_index} does not cover the "
                f"active set {sorted(active)}"
            )
        return schedule_from_blocks(trimmed)


class RandomAdversary(Adversary):
    """Random blocks, random box choices, optional random crashes.

    Parameters
    ----------
    seed:
        RNG seed for reproducibility.
    crash_probability:
        Per-process, per-round crash probability, in ``[0, 1]``.  The
        adversary never crashes the last surviving process.
    """

    def __init__(self, seed: int = 0, crash_probability: float = 0.0) -> None:
        if not 0.0 <= crash_probability <= 1.0:
            raise RuntimeModelError(
                f"crash probability {crash_probability} outside [0, 1]"
            )
        self._rng = random.Random(seed)
        self._crash_probability = crash_probability

    def crashes(
        self, round_index: int, active: frozenset[int]
    ) -> frozenset[int]:
        if self._crash_probability <= 0:
            return frozenset()
        doomed = set()
        for process in sorted(active):
            if len(active) - len(doomed) <= 1:
                break
            if self._rng.random() < self._crash_probability:
                doomed.add(process)
        return frozenset(doomed)

    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        return schedule_from_blocks(
            random_ordered_partition(sorted(active), self._rng)
        )

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Mapping[int, object]],
    ) -> Mapping[int, object]:
        return options[self._rng.randrange(len(options))]


class RandomMatrixAdversary(Adversary):
    """Random schedules drawn from a *weaker* model's matrices.

    Samples uniformly among the distinct snapshot (or collect) view maps of
    the active set each round, from the process-wide pool of
    :func:`~repro.models.schedules.distinct_schedules`, so algorithms can
    be stress-tested outside the immediate-snapshot guarantees (e.g. to
    check whether the halving map of Eq. 3 survives incomparable collect
    views).

    Parameters
    ----------
    kind:
        ``"snapshot"`` or ``"collect"``.
    seed:
        RNG seed.
    """

    def __init__(self, kind: str = "snapshot", seed: int = 0) -> None:
        if kind not in ("snapshot", "collect"):
            raise RuntimeModelError(
                f"unknown schedule kind {kind!r}: use 'snapshot' or 'collect'"
            )
        self._kind = kind
        self._rng = random.Random(seed)

    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        # The pool holds one matrix per view map, so sampling is over
        # behaviors, not over syntactically distinct matrices.
        pool = distinct_schedules(self._kind, active)
        return pool[self._rng.randrange(len(pool))]


class FixedMatrixAdversary(Adversary):
    """Replay explicit :class:`OneRoundSchedule` matrices, one per round."""

    def __init__(self, schedules: Sequence[OneRoundSchedule]) -> None:
        self._schedules = list(schedules)

    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        if not 1 <= round_index <= len(self._schedules):
            raise RuntimeModelError(
                f"no schedule supplied for round {round_index}"
            )
        schedule = self._schedules[round_index - 1]
        if schedule.participants != active:
            raise RuntimeModelError(
                f"round {round_index} schedule covers "
                f"{sorted(schedule.participants)}, active set is "
                f"{sorted(active)}"
            )
        return schedule


def all_schedule_sequences(
    ids: Iterable[int], rounds: int
) -> Iterator[tuple[Blocks, ...]]:
    """Every ``rounds``-tuple of block schedules over a fixed process set.

    There are ``Fubini(n)^rounds`` of them (13² = 169 for three processes
    and two rounds); use only on small instances.
    """
    if rounds < 0:
        raise RuntimeModelError(f"round count {rounds} is negative")
    return product(list(ordered_partitions(ids)), repeat=rounds)
