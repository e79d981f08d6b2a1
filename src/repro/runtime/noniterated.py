"""A non-iterated shared-memory executor (the conclusion's open question).

The paper proves its speedup theorem for *iterated* models, where round
``r`` runs on a fresh register array ``M_r``, and notes that extending it
to non-iterated models — one register per process, reused forever — is
open: the two settings are equivalent for task *solvability* but not known
to be equivalent for round *complexity*.

This executor makes the non-iterated setting concrete so it can be explored
empirically:

* each process owns a single register and alternates ``write(state)`` with
  a sequential collect of all registers, ``t`` times;
* the adversary interleaves individual atomic operations arbitrarily, so a
  fast process can be three phases ahead of a slow one — a process may read
  a peer's *stale* (older-phase) or *fresh* (newer-phase) state, something
  iterated executions forbid;
* register contents are tagged with the writer's phase, and ``step``
  receives the freshest state observed per peer, matching the
  full-information convention.

Even with phase barriers (``synchronized=True``) the setting differs from
the iterated model in one essential way: an iterated round-``r`` collect of
a register nobody wrote yet returns nothing, while the non-iterated
register still holds the *previous-phase* value — stale information the
iterated model structurally hides.  The tests and experiment E21 show this
difference has teeth: the round-indexed halving algorithm of Eq. (3),
correct in every iterated model down to collect, violates ε here, and a
phase-filtering variant
(:class:`~repro.algorithms.approximate_agreement.NonIteratedHalvingAA`)
restores it.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

from repro.errors import FaultInjectionError, RuntimeModelError
from repro.runtime.algorithm import RoundAlgorithm
from repro.runtime.registers import RegisterArray

__all__ = ["NonIteratedExecutor", "NonIteratedResult", "PhaseObservation"]


@dataclass(frozen=True)
class PhaseObservation:
    """What one collect saw: per peer, the phase and state read."""

    process: int
    phase: int
    seen: Mapping[int, tuple[int, Hashable]]


@dataclass
class NonIteratedResult:
    """Outcome of one non-iterated execution."""

    decisions: dict[int, Hashable]
    observations: list[PhaseObservation] = field(default_factory=list)

    def max_phase_skew(self) -> int:
        """The largest phase difference observed within a single collect.

        Zero for synchronized executions; positive skew is exactly what the
        iterated model rules out.
        """
        skew = 0
        for observation in self.observations:
            phases = [phase for phase, _ in observation.seen.values()]
            if phases:
                skew = max(skew, max(phases) - min(phases))
        return skew


class NonIteratedExecutor:
    """Run a round algorithm on reused registers under op-level asynchrony.

    Parameters
    ----------
    seed:
        RNG seed for the operation interleaving.
    synchronized:
        When true, enforce phase barriers (everyone completes phase ``r``
        before anyone starts ``r+1``).  Phases align, but collects may
        still return *previous-phase* values of processes that have not
        written the current phase yet — the residual non-iterated effect.

    Every write is re-read by its writer: the register is single-writer,
    so reading back anything but the value just written proves a lost
    write (:class:`~repro.errors.FaultInjectionError`).
    """

    def __init__(self, seed: int = 0, synchronized: bool = False) -> None:
        self._rng = random.Random(seed)
        self._synchronized = synchronized

    def run(
        self,
        algorithm: RoundAlgorithm,
        inputs: Mapping[int, Hashable],
    ) -> NonIteratedResult:
        """Execute the algorithm's ``t`` phases for every participant."""
        if not inputs:
            raise RuntimeModelError("at least one process must participate")
        ids = tuple(sorted(inputs))
        array = RegisterArray(ids)
        states: dict[int, Hashable] = {
            p: algorithm.initial_state(p, inputs[p]) for p in ids
        }
        phase: dict[int, int] = {p: 0 for p in ids}
        # Per-process position within the current phase: the registers
        # its collect has still to read, in order.  An empty list with
        # nothing observed yet means the phase starts with a write.
        pending_reads: dict[int, list[int]] = {p: [] for p in ids}
        observed: dict[int, dict[int, tuple[int, Hashable]]] = {
            p: {} for p in ids
        }
        observations: list[PhaseObservation] = []
        # Phase-aware algorithms receive the (phase, state) tags and can
        # filter stale values themselves.
        phase_aware = getattr(algorithm, "phase_aware", False)
        rounds = algorithm.rounds

        def runnable() -> list[int]:
            if not self._synchronized:
                return [p for p in ids if phase[p] < rounds]
            lowest = min(phase.values())
            return [
                p for p in ids if phase[p] < rounds and phase[p] == lowest
            ]

        # The runnable set changes only when a process ends a phase, so it
        # is rebuilt only then (same contents, same order, same draws).
        candidates = runnable()
        choice = self._rng.choice
        while candidates:
            process = choice(candidates)
            if not pending_reads[process] and not observed[process]:
                # Start of a phase: write (phase, state), queue the reads.
                written = (phase[process] + 1, states[process])
                array.write(process, written)
                if array.read(process) != written:
                    # SWMR: only this process writes its register, so a
                    # mismatched re-read proves the write was dropped.
                    raise FaultInjectionError(
                        f"phase {phase[process] + 1}: write by process "
                        f"{process} was lost (register fault detected)"
                    )
                reads = list(ids)
                self._rng.shuffle(reads)
                pending_reads[process] = reads
                observed[process] = {}
                continue
            target = pending_reads[process].pop(0)
            content = array.read(target)
            if content is not None:
                peer_phase, peer_state = content
                observed[process][target] = (peer_phase, peer_state)
            if not pending_reads[process]:
                # Collect finished: step the algorithm.  The collect's
                # dict is handed over whole; the next phase gets a new one.
                seen = observed[process]
                phase[process] += 1
                observations.append(
                    PhaseObservation(
                        process=process,
                        phase=phase[process],
                        seen=seen,
                    )
                )
                if phase_aware:
                    seen_states: Mapping[int, Hashable] = seen
                else:
                    seen_states = {
                        peer: state for peer, (_, state) in seen.items()
                    }
                states[process] = algorithm.step(
                    process,
                    states[process],
                    seen_states,
                    None,
                    phase[process],
                )
                observed[process] = {}
                candidates = runnable()

        decisions = {
            p: algorithm.decide(p, states[p]) for p in ids
        }
        return NonIteratedResult(
            decisions=decisions, observations=observations
        )
