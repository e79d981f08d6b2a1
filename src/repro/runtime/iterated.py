"""The iterated executor: run a round algorithm against an adversary.

Implements Algorithms 1–2 operationally.  Each round uses a fresh register
array ``M_r`` and (in augmented models) a fresh copy ``B_r`` of the black
box.  One :class:`~repro.runtime.adversary.Adversary` fixes the execution:
it picks the crashes (before a round, or between a process's write and its
snapshot), the schedule, the box's output assignment and the round's
register array.  The executor materializes views through real register
writes and snapshots and threads the algorithm's state.  It records each
round as the :class:`~repro.runtime.adversary.TraceRound` of those
decisions, so ``ReplayAdversary(result.trace)`` re-executes the run; the
box's outputs are kept beside the trace, and the crashes are read off it.

Crashed processes simply stop taking steps — the wait-free survivors still
finish their ``t`` rounds and decide, which is the whole point of the model.

The executor trusts neither the adversary's register array nor its box
choice.  Every round, each view read out of the array must equal the view
the schedule declares (immediate-snapshot and matrix rounds alike; matrix
rounds first check that every write landed), and the realized box
assignment must be one of the box's admissible options.  A lost write, a
stale snapshot or a non-admissible assignment is raised as
:class:`~repro.errors.FaultInjectionError`, never silently absorbed.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FaultInjectionError, RuntimeModelError
from repro.models.schedules import OneRoundSchedule
from repro.objects.base import BlackBox
from repro.runtime.adversary import Adversary, FullSyncAdversary, TraceRound
from repro.runtime.algorithm import RoundAlgorithm
from repro.runtime.registers import RegisterArray

__all__ = ["IteratedExecutor", "ExecutionResult"]


@dataclass
class ExecutionResult:
    """The outcome of one adversarial execution.

    Attributes
    ----------
    decisions:
        Output value per surviving process.
    trace:
        One :class:`~repro.runtime.adversary.TraceRound` per round: the
        adversary's decisions, in the form
        :class:`~repro.runtime.adversary.ReplayAdversary` re-executes.
    box_outputs:
        The black box's outputs, one mapping per round (empty without a
        box).
    """

    decisions: dict[int, Hashable]
    trace: list[TraceRound] = field(default_factory=list)
    box_outputs: list[dict[int, Hashable]] = field(default_factory=list)

    @property
    def crashed(self) -> dict[int, int]:
        """Each crashed process, with the round before (or, for mid-round
        crashes, during) which it died."""
        crashed = {}
        for round_index, entry in enumerate(self.trace, start=1):
            for process in entry.crashes + entry.mid_crashes:
                crashed[process] = round_index
        return crashed

    def surviving(self) -> tuple[int, ...]:
        """The processes that decided."""
        return tuple(sorted(self.decisions))


class IteratedExecutor:
    """Drives a :class:`RoundAlgorithm` for its ``t`` rounds.

    Parameters
    ----------
    box:
        Optional black box (fresh copy per round, per Algorithm 2).  When
        provided, the adversary chooses among the box's admissible output
        assignments for the realized schedule.
    """

    def __init__(self, box: Optional[BlackBox] = None) -> None:
        self._box = box

    def run(
        self,
        algorithm: RoundAlgorithm,
        inputs: Mapping[int, Hashable],
        adversary: Optional[Adversary] = None,
    ) -> ExecutionResult:
        """Execute the algorithm once under the given adversary."""
        scheduler = adversary or FullSyncAdversary()
        active = frozenset(inputs)
        if not active:
            raise RuntimeModelError("at least one process must participate")
        states: dict[int, object] = {
            process: algorithm.initial_state(process, value)
            for process, value in inputs.items()
        }
        result = ExecutionResult(decisions={})
        box = self._box

        for round_index in range(1, algorithm.rounds + 1):
            doomed = scheduler.crashes(round_index, active)
            if doomed:
                if not doomed <= active:
                    raise RuntimeModelError(
                        f"adversary crashes {sorted(doomed - active)} "
                        f"before round {round_index}, outside the active "
                        f"set {sorted(active)}"
                    )
                if doomed >= active:
                    raise RuntimeModelError(
                        "the adversary may not crash every process"
                    )
                active = active - doomed

            schedule = scheduler.schedule(round_index, active)
            # What the round reads off the schedule (participants, their
            # sorted tuple, view map, blocks, sorted tuples) is derived
            # once per schedule.
            participants = schedule.participants
            if participants != active:
                raise RuntimeModelError(
                    f"adversary schedule covers {sorted(participants)}"
                    f", expected the active set {sorted(active)}"
                )
            blocks, views = schedule.as_tuples()
            dying = frozenset(
                scheduler.mid_round_crashes(round_index, schedule)
            )
            if dying:
                if not dying <= active:
                    raise RuntimeModelError(
                        f"adversary crashes {sorted(dying - active)} in "
                        f"round {round_index}, outside the round's "
                        f"participants {sorted(active)}"
                    )
                if dying >= active:
                    raise RuntimeModelError(
                        "the adversary may not crash every process mid-round"
                    )
            if box is None:
                box_outputs, box_choice = {}, 0
            else:
                box_outputs, box_choice = _run_box(
                    box, round_index, schedule, participants, states,
                    algorithm, scheduler,
                )
            ordered = schedule.ordered_participants
            array = scheduler.register_array(round_index, ordered)
            seen = self._run_round(
                round_index, array, schedule, ordered, states, dying
            )
            new_states = {}
            for process, view in seen.items():
                new_states[process] = algorithm.step(
                    process,
                    states[process],
                    {j: states[j] for j in view},
                    box_outputs.get(process),
                    round_index,
                )
            states.update(new_states)
            if dying:
                active = active - dying
            result.trace.append(
                TraceRound(
                    blocks=blocks,
                    crashes=tuple(sorted(doomed)) if doomed else (),
                    mid_crashes=tuple(sorted(dying)) if dying else (),
                    box_choice=box_choice,
                    views=views,
                )
            )
            result.box_outputs.append(box_outputs)

        result.decisions = {
            process: algorithm.decide(process, states[process])
            for process in active
        }
        return result

    # ------------------------------------------------------------------
    # Round internals
    # ------------------------------------------------------------------
    def _run_round(
        self,
        round_index: int,
        array: RegisterArray,
        schedule: OneRoundSchedule,
        ordered: tuple[int, ...],
        states: Mapping[int, object],
        dying: frozenset,
    ) -> dict[int, frozenset]:
        """Materialize the round's schedule through the register ``array``.

        ``ordered`` lists the schedule's participants in id order.
        Immediate-snapshot schedules run block by block (write together,
        snapshot together).  General snapshot/collect schedules write
        everything, take one snapshot, and give each process that snapshot
        restricted to its declared view set — the matrix conditions of
        Appendix A.3.4 guarantee some interleaving realizes those views.
        Processes in ``dying`` write but never snapshot (they crash
        mid-round), so their writes remain visible to the survivors while
        they themselves get no view.
        """
        participants = schedule.participants
        declared = schedule.views_by_process()
        immediate = schedule.is_immediate_snapshot()
        views: dict[int, frozenset] = {}
        if immediate:
            sorted_blocks, _ = schedule.as_tuples()
            for block, writers in zip(schedule.blocks(), sorted_blocks):
                for process in writers:
                    array.write(process, states[process])
                content = frozenset(array.snapshot())
                for process in block:
                    if process not in dying:
                        views[process] = content
        else:
            for process in ordered:
                array.write(process, states[process])
            _check_written(round_index, array, participants)
            content = frozenset(array.snapshot())
            views = {
                process: content & view
                for process, view in declared.items()
                if process not in dying
            }
        # Cross-check against the schedule's declared views.
        for process, view in views.items():
            if view != declared[process]:
                raise FaultInjectionError(
                    f"register execution produced view {sorted(view)} for "
                    f"process {process}, schedule declared "
                    f"{sorted(declared[process])}"
                )
        if immediate:
            # A lost write that no view shows (its writer crashed
            # mid-round before any survivor's snapshot) is caught here.
            _check_written(round_index, array, participants)
        return views


def _run_box(
    box: BlackBox,
    round_index: int,
    schedule: OneRoundSchedule,
    participants: frozenset[int],
    states: Mapping[int, object],
    algorithm: RoundAlgorithm,
    scheduler: Adversary,
) -> tuple[dict[int, Hashable], int]:
    """The round's box outputs, checked admissible, and the option index."""
    box_inputs = {
        process: algorithm.box_input(process, states[process], round_index)
        for process in participants
    }
    options = list(box.assignments(schedule, box_inputs))
    if not options:
        raise RuntimeModelError(
            f"box {box.name} produced no admissible assignment"
        )
    chosen = dict(scheduler.choose_assignment(round_index, schedule, options))
    try:
        choice = options.index(chosen)
    except ValueError:
        raise FaultInjectionError(
            f"round {round_index}: box {box.name} realized the "
            f"assignment {chosen}, which is not admissible for the "
            "schedule (consistency fault detected)"
        ) from None
    return chosen, choice


def _check_written(
    round_index: int, array: RegisterArray, participants: frozenset[int]
) -> None:
    """Raise :class:`FaultInjectionError` unless every participant wrote."""
    missing = participants.difference(array.written())
    if missing:
        raise FaultInjectionError(
            f"round {round_index}: writes by processes "
            f"{sorted(missing)} were lost (register fault detected)"
        )
