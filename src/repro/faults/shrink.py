"""Counterexample shrinking: delta-debug a violating trace to a minimum.

A campaign violation comes with a replayable
:class:`~repro.faults.injectors.FaultTrace`; this module minimizes it
while preserving the verdict.  Candidate simplifications, tried greedily
until none applies:

* replace a whole round by the benign one (single synchronous block, no
  crashes, first box option);
* un-crash one process (drop it from a round's pre-round or mid-round
  crash set — replay repairs later schedules to include it);
* merge two adjacent schedule blocks (one step toward full synchrony);
* reset a round's box choice to the first admissible option;
* downgrade a general matrix round to its synchronous immediate-snapshot
  counterpart.

Every simplification strictly decreases :func:`trace_weight`, so the loop
terminates; the result is *locally minimal* — no single remaining
simplification preserves the verdict.  Re-execution is deterministic
(:func:`repro.faults.campaign.replay_trace`), so the minimized trace is a
self-contained, reproducible counterexample: for the broken fixtures it
typically pins the violation on one adversarial round with one split
block, which is exactly the schedule the impossibility arguments
(Corollary 1, Claim 3) reason about.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import Callable, Optional

from repro.faults.campaign import replay_trace
from repro.faults.injectors import FaultTrace, TraceRound
from repro.faults.oracles import Violation
from repro.telemetry import default_registry

__all__ = ["shrink_trace", "trace_weight", "simplifications"]

_REPLAYS = default_registry().cache("faults.shrink.replays")

Verdict = tuple[str, Optional[str]]
ReplayFn = Callable[[FaultTrace], Verdict]


def trace_weight(trace: FaultTrace) -> int:
    """How far a trace is from the benign synchronous execution.

    Zero iff every round is a crash-free single block realizing the first
    box option.  Every simplification in :func:`simplifications` strictly
    decreases this, which bounds the shrink loop.
    """
    weight = 0
    for entry in trace.rounds:
        weight += max(0, len(entry.blocks) - 1)
        weight += len(entry.crashes)
        weight += len(entry.mid_crashes)
        weight += entry.box_choice
        if entry.views is not None:
            weight += 1
    return weight


def _benign_round() -> TraceRound:
    """The fully synchronous, crash-free, first-option round."""
    return TraceRound(blocks=())


def simplifications(trace: FaultTrace) -> Iterator[FaultTrace]:
    """Candidate one-step simplifications, coarsest first.

    Coarse candidates (whole-round replacement) come before fine-grained
    ones so the greedy loop discards entire irrelevant rounds before
    polishing the essential ones.
    """
    # 1. Replace a whole adversarial round by the benign one.
    for index, entry in enumerate(trace.rounds):
        if not entry.is_benign():
            yield trace.replace_round(index, _benign_round())
    for index, entry in enumerate(trace.rounds):
        # 2. Un-crash one process.
        for victim in entry.crashes:
            yield trace.replace_round(
                index,
                TraceRound(
                    blocks=entry.blocks,
                    crashes=tuple(
                        p for p in entry.crashes if p != victim
                    ),
                    mid_crashes=entry.mid_crashes,
                    box_choice=entry.box_choice,
                    views=entry.views,
                ),
            )
        for victim in entry.mid_crashes:
            yield trace.replace_round(
                index,
                TraceRound(
                    blocks=entry.blocks,
                    crashes=entry.crashes,
                    mid_crashes=tuple(
                        p for p in entry.mid_crashes if p != victim
                    ),
                    box_choice=entry.box_choice,
                    views=entry.views,
                ),
            )
        # 3. Downgrade a matrix round to synchronous immediate snapshot.
        if entry.views is not None:
            participants = tuple(
                sorted(p for block in entry.blocks for p in block)
            )
            yield trace.replace_round(
                index,
                TraceRound(
                    blocks=(participants,),
                    crashes=entry.crashes,
                    mid_crashes=entry.mid_crashes,
                    box_choice=entry.box_choice,
                ),
            )
        elif len(entry.blocks) > 1:
            # 4. Merge two adjacent temporal blocks.
            for cut in range(len(entry.blocks) - 1):
                merged = tuple(
                    sorted(entry.blocks[cut] + entry.blocks[cut + 1])
                )
                yield trace.replace_round(
                    index,
                    TraceRound(
                        blocks=(
                            entry.blocks[:cut]
                            + (merged,)
                            + entry.blocks[cut + 2 :]
                        ),
                        crashes=entry.crashes,
                        mid_crashes=entry.mid_crashes,
                        box_choice=entry.box_choice,
                    ),
                )
        # 5. Reset the box choice.
        if entry.box_choice:
            yield trace.replace_round(
                index,
                TraceRound(
                    blocks=entry.blocks,
                    crashes=entry.crashes,
                    mid_crashes=entry.mid_crashes,
                    box_choice=0,
                    views=entry.views,
                ),
            )


def _default_replay(
    epsilon: Fraction, step_budget: Optional[int]
) -> ReplayFn:
    def replay(trace: FaultTrace) -> Verdict:
        classification, violation = replay_trace(
            trace, epsilon=epsilon, step_budget=step_budget
        )
        return classification, (
            violation.property if violation is not None else None
        )

    return replay


def shrink_trace(
    trace: FaultTrace,
    replay: Optional[ReplayFn] = None,
    epsilon: Fraction = Fraction(1, 8),
    step_budget: Optional[int] = 20_000,
    max_replays: int = 2_000,
) -> FaultTrace:
    """Minimize a trace while preserving its replay verdict.

    Parameters
    ----------
    trace:
        The counterexample to minimize.
    replay:
        ``trace -> (classification, property)``; defaults to
        :func:`repro.faults.campaign.replay_trace` with the given ε and
        step budget.  A candidate is accepted iff its verdict equals the
        original trace's verdict.
    max_replays:
        Hard cap on re-executions (defense in depth — the weight metric
        already guarantees termination).

    Returns
    -------
    FaultTrace
        A locally minimal trace with the same verdict as the input.
    """
    if replay is None:
        replay = _default_replay(epsilon, step_budget)
    _REPLAYS.built()
    target = replay(trace)
    replays = 1
    current = trace
    improved = True
    while improved and replays < max_replays:
        improved = False
        current_weight = trace_weight(current)
        for candidate in simplifications(current):
            if trace_weight(candidate) >= current_weight:
                continue
            _REPLAYS.built()
            replays += 1
            if replay(candidate) == target:
                current = candidate
                improved = True
                break
            if replays >= max_replays:
                break
    return current
