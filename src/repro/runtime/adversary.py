"""Adversarial schedulers for the iterated executor.

An adversary controls everything the model leaves open: which processes
crash before each round, how the surviving processes are split into
immediate-snapshot blocks, which of them crash between their write and
their snapshot, and — in augmented models — which admissible black-box
assignment the round's object realizes.  It also supplies the round's
register array, so a chaos adversary can hand the executor a faulty one
and check that the executor's cross-checks catch it.

Wait-freedom means algorithms must cope with *every* adversary here, from
the fully synchronous one to crash-heavy randomized ones.  A fixed
execution is its sequence of per-round decisions, one :class:`TraceRound`
each; the iterated executor records exactly that sequence as an
execution's trace.  :class:`ReplayAdversary` re-executes any such
sequence, whether an execution's trace, a fault trace's rounds, a block
schedule's from :func:`all_schedule_sequences` (every ``t``-round block
schedule, for exhaustive verification on small instances) or a matrix's
from ``OneRoundSchedule.as_tuples()``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import product
from typing import Optional

from repro.errors import RuntimeModelError, ScheduleError
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
    "RandomMatrixAdversary",
    "TraceRound",
    "ReplayAdversary",
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


@dataclass(frozen=True)
class TraceRound:
    """Every adversarial decision of one round, in replayable form.

    ``blocks`` are the temporal blocks for immediate-snapshot rounds; for
    general matrix rounds they are the matrix groups and ``views`` carries
    the matching view sets.  ``crashes`` die before the round,
    ``mid_crashes`` die between their write and their snapshot, and
    ``box_choice`` indexes the realized assignment among the box's
    admissible options (0 without a box).  The iterated executor records
    one per round, with every id tuple sorted; each process's view is the
    rebuilt schedule's ``view_map()`` entry, for every participant outside
    ``mid_crashes``.
    """

    blocks: tuple[tuple[int, ...], ...]
    crashes: tuple[int, ...] = ()
    mid_crashes: tuple[int, ...] = ()
    box_choice: int = 0
    views: Optional[tuple[tuple[int, ...], ...]] = None

    def is_benign(self) -> bool:
        """True when the round is a crash-free single block, first option."""
        return (
            len(self.blocks) <= 1
            and not self.crashes
            and not self.mid_crashes
            and self.box_choice == 0
            and self.views is None
        )


def _repaired(
    recorded: tuple[int, ...], live: frozenset[int]
) -> frozenset[int]:
    """A recorded crash set trimmed to ``live``, never all of it."""
    doomed = frozenset(recorded) & live
    if doomed >= live:
        doomed = doomed - {min(live)}
    return doomed


class ReplayAdversary(Adversary):
    """Re-execute a sequence of recorded rounds, one :class:`TraceRound` each.

    Replay is *repairing*: shrinking edits a trace (un-crashing a process,
    merging blocks), which can leave recorded schedules inconsistent with
    the processes actually alive.  Each round the recorded blocks are
    intersected with the active set and any unscheduled active processes
    are appended as a final block; rounds past the sequence run fully
    synchronous.  Crash sets are trimmed to the live processes and never
    take all of them; box choices are clamped into the option range.
    """

    def __init__(self, rounds: Sequence[TraceRound]) -> None:
        self._rounds = tuple(rounds)

    def _round(self, round_index: int) -> Optional[TraceRound]:
        if round_index < 1:
            # Rounds count from 1; a smaller index must not wrap around.
            raise RuntimeModelError(f"round {round_index} precedes round 1")
        if round_index <= len(self._rounds):
            return self._rounds[round_index - 1]
        return None

    def crashes(
        self, round_index: int, active: frozenset[int]
    ) -> frozenset[int]:
        entry = self._round(round_index)
        if entry is None:
            return frozenset()
        return _repaired(entry.crashes, active)

    def schedule(
        self, round_index: int, active: frozenset[int]
    ) -> OneRoundSchedule:
        entry = self._round(round_index)
        if entry is None:
            return schedule_from_blocks([active])
        if entry.views is not None:
            # General matrix round: trim groups and views to the active
            # set; fall back to full sync if the trim breaks the matrix
            # conditions (e.g. after an un-crash edit).
            groups = []
            views = []
            for group, view in zip(entry.blocks, entry.views):
                alive = frozenset(group) & active
                if alive:
                    groups.append(alive)
                    views.append(frozenset(view) & active)
            scheduled = frozenset().union(*groups) if groups else frozenset()
            if scheduled == active:
                try:
                    return OneRoundSchedule(tuple(groups), tuple(views))
                except ScheduleError:
                    pass
            return schedule_from_blocks([active])
        blocks = []
        scheduled: frozenset[int] = frozenset()
        for block in entry.blocks:
            alive = frozenset(block) & active
            if alive:
                blocks.append(alive)
                scheduled |= alive
        missing = active - scheduled
        if missing:
            blocks.append(missing)
        if not blocks:
            blocks.append(active)
        return schedule_from_blocks(blocks)

    def mid_round_crashes(
        self, round_index: int, schedule: OneRoundSchedule
    ) -> frozenset[int]:
        entry = self._round(round_index)
        if entry is None:
            return frozenset()
        return _repaired(entry.mid_crashes, schedule.participants)

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Mapping[int, object]],
    ) -> Mapping[int, object]:
        entry = self._round(round_index)
        choice = entry.box_choice if entry is not None else 0
        return options[min(choice, len(options) - 1)]


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
