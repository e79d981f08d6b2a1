"""Composable, seed-deterministic fault injectors and replayable traces.

An injector plugs into the three hooks of
:class:`~repro.runtime.iterated.IteratedExecutor`:

* ``mid_round_crashes(round_index, schedule)`` — kill processes *between*
  their write and their snapshot (the write stays visible to survivors,
  the victim never sees a view);
* ``register_array(round_index, ids)`` — substitute the round's register
  array, optionally carrying a write or snapshot filter;
* ``choose_assignment(round_index, schedule, options, chosen)`` — override
  the adversary's black-box output assignment.

Injectors are split by *legality*.  Legal injectors (``legal = True``)
stay inside the model — crashes and adversarial-but-admissible box choices
are behaviors a wait-free algorithm must survive, so the oracles still
apply.  Illegal injectors break the model itself (lost writes, snapshots
inconsistent with the schedule, non-admissible assignments); correct
executor behavior is to *detect* them and raise
:class:`~repro.errors.FaultInjectionError`.  The chaos campaign uses both
kinds: legal ones to hunt property violations, illegal ones to prove the
safety nets fire.

Every random decision derives from a ``random.Random(seed)``, so a given
``(injector seed, adversary seed, inputs)`` triple replays identically;
the realized decisions are additionally recoverable from the execution's
:class:`~repro.runtime.iterated.RoundRecord` list as a :class:`FaultTrace`
that :class:`ReplayAdversary`/:class:`ReplayInjector` re-execute exactly —
the substrate of counterexample shrinking (:mod:`repro.faults.shrink`).
"""

from __future__ import annotations

import json
import random
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import RuntimeModelError, ScheduleError
from repro.models.schedules import OneRoundSchedule, schedule_from_blocks
from repro.runtime.adversary import Adversary
from repro.runtime.iterated import ExecutionResult
from repro.runtime.registers import RegisterArray

__all__ = [
    "FaultInjector",
    "CompositeInjector",
    "MidRoundCrashInjector",
    "CrashStormInjector",
    "AdversarialBoxInjector",
    "LostWriteInjector",
    "StaleSnapshotInjector",
    "NonAdmissibleBoxInjector",
    "FaultTrace",
    "TraceRound",
    "ReplayAdversary",
    "ReplayInjector",
]

Assignment = Mapping[int, object]

#: Sentinel output value no black box ever produces; used by the
#: non-admissible injector so corruption can never collide with a real
#: admissible assignment.
_BOGUS_OUTPUT = "⊥-injected"


class FaultInjector:
    """Base injector: the identity on every hook (injects nothing).

    Subclasses override :meth:`mid_round_crashes`,
    :meth:`write_filter`/:meth:`snapshot_filter` (consumed by the default
    :meth:`register_array`), or :meth:`choose_assignment`.
    """

    #: ``False`` for injectors producing model-breaking faults that the
    #: executor must detect (see the module docstring).
    legal: bool = True

    def mid_round_crashes(
        self, round_index: int, schedule: OneRoundSchedule
    ) -> frozenset[int]:
        """Processes to kill between their write and their snapshot."""
        return frozenset()

    def write_filter(
        self, round_index: int
    ) -> Optional[Callable[[int, Hashable], bool]]:
        """Per-round write filter for the register array (None: faithful)."""
        return None

    def snapshot_filter(
        self, round_index: int
    ) -> Optional[Callable[[dict], dict]]:
        """Per-round snapshot filter (None: faithful)."""
        return None

    def register_array(
        self, round_index: int, ids: tuple[int, ...]
    ) -> RegisterArray:
        """The round's register array, carrying this injector's filters."""
        return RegisterArray(
            ids,
            write_filter=self.write_filter(round_index),
            snapshot_filter=self.snapshot_filter(round_index),
        )

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Assignment],
        chosen: Assignment,
    ) -> Assignment:
        """Override the adversary's box assignment (default: keep it)."""
        return chosen


class CompositeInjector(FaultInjector):
    """Combine several injectors into one.

    Mid-round crash sets are unioned; write filters conjoin (any member
    dropping a write drops it); snapshot filters compose in member order;
    box overrides fold left to right.  The composite is legal only when
    every member is.
    """

    def __init__(self, *injectors: FaultInjector) -> None:
        self._injectors = tuple(injectors)
        self.legal = all(injector.legal for injector in self._injectors)

    def mid_round_crashes(
        self, round_index: int, schedule: OneRoundSchedule
    ) -> frozenset[int]:
        doomed: frozenset[int] = frozenset()
        for injector in self._injectors:
            doomed |= injector.mid_round_crashes(round_index, schedule)
        return doomed

    def write_filter(
        self, round_index: int
    ) -> Optional[Callable[[int, Hashable], bool]]:
        filters = [
            found
            for injector in self._injectors
            if (found := injector.write_filter(round_index)) is not None
        ]
        if not filters:
            return None

        def conjoined(process: int, value: Hashable) -> bool:
            return all(accept(process, value) for accept in filters)

        return conjoined

    def snapshot_filter(
        self, round_index: int
    ) -> Optional[Callable[[dict], dict]]:
        filters = [
            found
            for injector in self._injectors
            if (found := injector.snapshot_filter(round_index)) is not None
        ]
        if not filters:
            return None

        def composed(content: dict) -> dict:
            for transform in filters:
                content = transform(content)
            return content

        return composed

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Assignment],
        chosen: Assignment,
    ) -> Assignment:
        for injector in self._injectors:
            chosen = injector.choose_assignment(
                round_index, schedule, options, chosen
            )
        return chosen


class MidRoundCrashInjector(FaultInjector):
    """Seed-deterministic mid-round crashes under a total budget.

    Each round, every participant independently dies between its write and
    its snapshot with probability ``probability``, subject to two caps: at
    most ``budget`` crashes over the whole execution, and at least one
    participant always survives the round.
    """

    def __init__(
        self, seed: int, probability: float = 0.1, budget: int = 1
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise RuntimeModelError(
                f"crash probability {probability} outside [0, 1]"
            )
        if budget < 0:
            raise RuntimeModelError(f"crash budget {budget} is negative")
        self._rng = random.Random(seed)
        self._probability = probability
        self._budget = budget
        self._spent = 0

    def mid_round_crashes(
        self, round_index: int, schedule: OneRoundSchedule
    ) -> frozenset[int]:
        participants = sorted(schedule.participants)
        doomed: set[int] = set()
        for process in participants:
            if self._spent + len(doomed) >= self._budget:
                break
            if len(participants) - len(doomed) <= 1:
                break
            if self._rng.random() < self._probability:
                doomed.add(process)
        self._spent += len(doomed)
        return frozenset(doomed)


class CrashStormInjector(FaultInjector):
    """A crash-heavy adversary: kill as many as allowed at chosen rounds.

    At each round in ``storm_rounds`` it crashes every participant but one
    (the survivor with the smallest ID), capped by the remaining budget —
    the worst legal crash pattern, exercising executions where up to
    ``n − 1`` processes die at once.
    """

    def __init__(
        self, storm_rounds: Iterable[int], budget: Optional[int] = None
    ) -> None:
        self._storm_rounds = frozenset(storm_rounds)
        self._budget = budget
        self._spent = 0

    def mid_round_crashes(
        self, round_index: int, schedule: OneRoundSchedule
    ) -> frozenset[int]:
        if round_index not in self._storm_rounds:
            return frozenset()
        victims = sorted(schedule.participants)[1:]
        if self._budget is not None:
            victims = victims[: max(0, self._budget - self._spent)]
        self._spent += len(victims)
        return frozenset(victims)


class AdversarialBoxInjector(FaultInjector):
    """Replace the adversary's box choice by a seeded random *admissible* one.

    Stays legal — the realized assignment is always one of the box's own
    options — but decorrelates the box behavior from the schedule
    adversary, covering combinations a single RNG stream would miss.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Assignment],
        chosen: Assignment,
    ) -> Assignment:
        return options[self._rng.randrange(len(options))]


class LostWriteInjector(FaultInjector):
    """Illegal: silently drop one process's write in one round.

    The executor's completeness check (every active process must appear in
    ``array.written()`` before views are taken, and the single-writer
    re-read in the non-iterated executor) detects the loss and raises
    :class:`~repro.errors.FaultInjectionError`.
    """

    legal = False

    def __init__(self, round_index: int, victim: int) -> None:
        self._round_index = round_index
        self._victim = victim

    def write_filter(
        self, round_index: int
    ) -> Optional[Callable[[int, Hashable], bool]]:
        if round_index != self._round_index:
            return None
        victim = self._victim
        return lambda process, value: process != victim


class StaleSnapshotInjector(FaultInjector):
    """Illegal: erase one process from every snapshot of one round.

    Models a snapshot primitive returning stale (pre-write) contents.  The
    resulting views disagree with the schedule's declared view sets, which
    the executor's cross-check flags as a
    :class:`~repro.errors.FaultInjectionError`.
    """

    legal = False

    def __init__(self, round_index: int, victim: int) -> None:
        self._round_index = round_index
        self._victim = victim

    def snapshot_filter(
        self, round_index: int
    ) -> Optional[Callable[[dict], dict]]:
        if round_index != self._round_index:
            return None
        victim = self._victim

        def erase(content: dict) -> dict:
            return {
                process: value
                for process, value in content.items()
                if process != victim
            }

        return erase


class NonAdmissibleBoxInjector(FaultInjector):
    """Illegal: realize a box assignment outside the admissible options.

    Corrupts one participant's output to a sentinel value no box produces;
    the executor's membership check (`options.index`) fails and raises
    :class:`~repro.errors.FaultInjectionError`.
    """

    legal = False

    def __init__(self, round_index: int) -> None:
        self._round_index = round_index

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Assignment],
        chosen: Assignment,
    ) -> Assignment:
        if round_index != self._round_index:
            return chosen
        corrupted = dict(chosen)
        victim = min(schedule.participants)
        corrupted[victim] = _BOGUS_OUTPUT
        return corrupted


# ----------------------------------------------------------------------
# Replayable traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceRound:
    """Every adversarial decision of one round, in replayable form.

    ``blocks`` are the temporal blocks for immediate-snapshot rounds; for
    general matrix rounds they are the matrix groups and ``views`` carries
    the matching view sets.  ``crashes`` die before the round,
    ``mid_crashes`` die between their write and their snapshot, and
    ``box_choice`` indexes the realized assignment among the box's
    admissible options.
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


@dataclass(frozen=True)
class FaultTrace:
    """A complete, replayable record of one execution's adversary.

    Holds the inputs and the per-round decisions; together with the
    deterministic algorithm under test this pins down the execution
    exactly.  :meth:`to_json`/:meth:`from_json` round-trip through a
    plain-text format (input values are stringified — the campaign cell's
    ``parse_input`` restores them), so traces can be stored in incident
    reports and replayed with ``repro chaos --replay``.
    """

    inputs: tuple[tuple[int, str], ...]
    rounds: tuple[TraceRound, ...]
    cell: str = ""

    @classmethod
    def from_execution(
        cls,
        result: ExecutionResult,
        inputs: Mapping[int, Hashable],
        cell: str = "",
    ) -> "FaultTrace":
        """Distill the replayable decisions out of an execution result."""
        rounds = []
        for record in result.trace:
            mid = frozenset(record.mid_crashed)
            crashes = tuple(
                sorted(
                    process
                    for process, when in result.crashed.items()
                    if when == record.round_index and process not in mid
                )
            )
            rounds.append(
                TraceRound(
                    blocks=record.blocks,
                    crashes=crashes,
                    mid_crashes=tuple(sorted(mid)),
                    box_choice=record.box_choice or 0,
                    views=record.schedule_views,
                )
            )
        return cls(
            inputs=tuple(
                (process, str(inputs[process])) for process in sorted(inputs)
            ),
            rounds=tuple(rounds),
            cell=cell,
        )

    def parsed_inputs(
        self, parse: Callable[[str], Hashable]
    ) -> dict[int, Hashable]:
        """The input assignment with values restored from their strings."""
        return {process: parse(text) for process, text in self.inputs}

    def to_json(self) -> str:
        """A stable JSON encoding (sorted keys, no whitespace surprises)."""
        payload = {
            "cell": self.cell,
            "inputs": [[process, text] for process, text in self.inputs],
            "rounds": [
                {
                    "blocks": [list(block) for block in entry.blocks],
                    "crashes": list(entry.crashes),
                    "mid_crashes": list(entry.mid_crashes),
                    "box_choice": entry.box_choice,
                    "views": (
                        None
                        if entry.views is None
                        else [list(view) for view in entry.views]
                    ),
                }
                for entry in self.rounds
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultTrace":
        """Parse a trace produced by :meth:`to_json`.

        Raises :class:`~repro.errors.RuntimeModelError` naming the first
        field that is not JSON of :meth:`to_json`'s shape.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise RuntimeModelError(f"not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise RuntimeModelError("a fault trace must be a JSON object")
        inputs = _field(payload, "inputs", list)
        if not all(
            isinstance(pair, list)
            and len(pair) == 2
            and _is_int(pair[0])
            and isinstance(pair[1], (str, int))
            for pair in inputs
        ):
            raise RuntimeModelError(
                "'inputs' must be a list of [process, value] pairs"
            )
        if len({pair[0] for pair in inputs}) < len(inputs):
            raise RuntimeModelError("'inputs' lists a process twice")
        rounds = []
        for position, entry in enumerate(_field(payload, "rounds", list)):
            where = f"rounds[{position}]"
            if not isinstance(entry, dict):
                raise RuntimeModelError(f"{where} must be an object")
            views = entry.get("views")
            box_choice = _field(entry, "box_choice", int, 0, where)
            if box_choice < 0:
                raise RuntimeModelError(
                    f"{where}.box_choice {box_choice} is negative"
                )
            rounds.append(
                TraceRound(
                    blocks=_int_lists(entry.get("blocks"), f"{where}.blocks"),
                    crashes=_ints(
                        entry.get("crashes", []), f"{where}.crashes"
                    ),
                    mid_crashes=_ints(
                        entry.get("mid_crashes", []), f"{where}.mid_crashes"
                    ),
                    box_choice=box_choice,
                    views=(
                        None
                        if views is None
                        else _int_lists(views, f"{where}.views")
                    ),
                )
            )
        return cls(
            inputs=tuple((process, str(value)) for process, value in inputs),
            rounds=tuple(rounds),
            cell=_field(payload, "cell", str, ""),
        )

    def replace_round(self, index: int, entry: TraceRound) -> "FaultTrace":
        """A copy with round ``index`` (0-based) replaced."""
        rounds = list(self.rounds)
        rounds[index] = entry
        return FaultTrace(
            inputs=self.inputs, rounds=tuple(rounds), cell=self.cell
        )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(
    payload: dict,
    key: str,
    kind: type,
    default: object = None,
    where: str = "",
) -> Any:
    """``payload[key]`` checked to be a ``kind`` (``default`` if absent)."""
    value = payload.get(key, default)
    if not isinstance(value, kind) or (kind is int and not _is_int(value)):
        raise RuntimeModelError(
            f"{where + '.' if where else ''}{key} must be a "
            f"{kind.__name__}, got {value!r}"
        )
    return value


def _ints(value: object, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise RuntimeModelError(
            f"{where} must be a list of process ids, got {value!r}"
        )
    return tuple(value)


def _int_lists(value: object, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise RuntimeModelError(f"{where} must be a list, got {value!r}")
    return tuple(
        _ints(item, f"{where}[{position}]")
        for position, item in enumerate(value)
    )


class ReplayAdversary(Adversary):
    """Re-execute the schedule/crash/box decisions recorded in a trace.

    Replay is *repairing*: shrinking edits a trace (un-crashing a process,
    merging blocks), which can leave recorded schedules inconsistent with
    the processes actually alive.  Each round the recorded blocks are
    intersected with the active set and any unscheduled active processes
    are appended as a final block; rounds beyond the trace run fully
    synchronous.  Box choices are clamped into the option range.
    """

    def __init__(self, trace: FaultTrace) -> None:
        self._trace = trace

    def _round(self, round_index: int) -> Optional[TraceRound]:
        if 1 <= round_index <= len(self._trace.rounds):
            return self._trace.rounds[round_index - 1]
        return None

    def crashes(
        self, round_index: int, active: frozenset[int]
    ) -> frozenset[int]:
        entry = self._round(round_index)
        if entry is None:
            return frozenset()
        doomed = frozenset(entry.crashes) & active
        if doomed >= active:
            # Repair: never crash the whole active set.
            doomed = doomed - {min(active)}
        return doomed

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

    def choose_assignment(
        self,
        round_index: int,
        schedule: OneRoundSchedule,
        options: Sequence[Assignment],
    ) -> Assignment:
        entry = self._round(round_index)
        choice = entry.box_choice if entry is not None else 0
        return options[min(choice, len(options) - 1)]


class ReplayInjector(FaultInjector):
    """Replay the mid-round crashes recorded in a trace (repairing)."""

    def __init__(self, trace: FaultTrace) -> None:
        self._trace = trace

    def mid_round_crashes(
        self, round_index: int, schedule: OneRoundSchedule
    ) -> frozenset[int]:
        if not 1 <= round_index <= len(self._trace.rounds):
            return frozenset()
        entry = self._trace.rounds[round_index - 1]
        doomed = frozenset(entry.mid_crashes) & schedule.participants
        if doomed >= schedule.participants:
            doomed = doomed - {min(schedule.participants)}
        return doomed
