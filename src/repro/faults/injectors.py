"""Replayable fault traces.

A campaign execution is fixed by its inputs and its adversary's decisions:
per round, the crashes before it, the schedule, the mid-round crashes and
the black box's realized option.  The executor records exactly those
decisions as the execution's trace, one
:class:`~repro.runtime.adversary.TraceRound` per round.
:class:`FaultTrace` keeps that trace with the (stringified) inputs and
round-trips both through JSON; replaying ``trace.rounds`` through
:class:`~repro.runtime.adversary.ReplayAdversary` re-executes them exactly
— the substrate of counterexample shrinking (:mod:`repro.faults.shrink`)
and of ``repro chaos --replay``.
"""

from __future__ import annotations

import json
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RuntimeModelError, ScheduleError
from repro.models.schedules import OneRoundSchedule
from repro.runtime.adversary import TraceRound

__all__ = ["FaultTrace"]


@dataclass(frozen=True)
class FaultTrace:
    """A complete, replayable record of one execution's adversary.

    Holds the inputs and the per-round decisions (an execution's
    ``trace``, as the executor recorded it); together with the
    deterministic algorithm under test this pins down the execution
    exactly.  :meth:`to_json`/:meth:`from_json` round-trip through a
    plain-text format (input values are stringified — the campaign cell's
    ``parse_input`` restores them), so traces can be stored in incident
    reports and replayed with ``repro chaos --replay``.
    """

    inputs: tuple[tuple[int, str], ...]
    rounds: tuple[TraceRound, ...]
    cell: str = ""

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
        field that is not JSON of :meth:`to_json`'s shape, or the first
        matrix round whose groups and views break the matrix conditions.
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
            box_choice = _field(entry, "box_choice", int, 0, where)
            if box_choice < 0:
                raise RuntimeModelError(
                    f"{where}.box_choice {box_choice} is negative"
                )
            blocks = _int_lists(entry.get("blocks"), f"{where}.blocks")
            views = entry.get("views")
            if views is not None:
                views = _int_lists(views, f"{where}.views")
                if len(views) != len(blocks):
                    raise RuntimeModelError(
                        f"{where}.views has {len(views)} view sets for "
                        f"{len(blocks)} groups"
                    )
                # A recorded matrix round was a schedule; one that breaks
                # the matrix conditions was never run.
                try:
                    OneRoundSchedule(blocks, views)
                except ScheduleError as exc:
                    raise RuntimeModelError(
                        f"{where} is not a matrix round: {exc}"
                    ) from exc
            rounds.append(
                TraceRound(
                    blocks=blocks,
                    crashes=_ints(
                        entry.get("crashes", []), f"{where}.crashes"
                    ),
                    mid_crashes=_ints(
                        entry.get("mid_crashes", []), f"{where}.mid_crashes"
                    ),
                    box_choice=box_choice,
                    views=views,
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
