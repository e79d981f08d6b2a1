"""Replayable fault traces and the adversary that replays them.

A campaign execution is fixed by its inputs and its adversary's decisions:
per round, the crashes before it, the schedule, the mid-round crashes and
the black box's realized option.  :class:`FaultTrace` records those
decisions from an execution's :class:`~repro.runtime.iterated.RoundRecord`
list, round-trips them through JSON, and :class:`ReplayAdversary`
re-executes them exactly — the substrate of counterexample shrinking
(:mod:`repro.faults.shrink`) and of ``repro chaos --replay``.
"""

from __future__ import annotations

import json
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import RuntimeModelError, ScheduleError
from repro.models.schedules import OneRoundSchedule, schedule_from_blocks
from repro.runtime.adversary import Adversary
from repro.runtime.iterated import ExecutionResult

__all__ = ["FaultTrace", "TraceRound", "ReplayAdversary"]

Assignment = Mapping[int, object]


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


def _repaired(
    recorded: tuple[int, ...], live: frozenset[int]
) -> frozenset[int]:
    """A recorded crash set trimmed to ``live``, never all of it."""
    doomed = frozenset(recorded) & live
    if doomed >= live:
        doomed = doomed - {min(live)}
    return doomed


class ReplayAdversary(Adversary):
    """Re-execute the schedule/crash/box decisions recorded in a trace.

    Replay is *repairing*: shrinking edits a trace (un-crashing a process,
    merging blocks), which can leave recorded schedules inconsistent with
    the processes actually alive.  Each round the recorded blocks are
    intersected with the active set and any unscheduled active processes
    are appended as a final block; rounds beyond the trace run fully
    synchronous.  Crash sets are trimmed to the live processes and never
    take all of them; box choices are clamped into the option range.
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
        options: Sequence[Assignment],
    ) -> Assignment:
        entry = self._round(round_index)
        choice = entry.box_choice if entry is not None else 0
        return options[min(choice, len(options) - 1)]
