"""Operation-level asynchronous execution of a single round.

These executors interleave *individual atomic operations* — the write and
the ``n`` sequential reads of a collect, the atomic snapshot, or the
write-snapshot block of an immediate snapshot — under a randomized
adversary, against real :class:`~repro.runtime.registers.RegisterArray`
state.  They return the per-process view sets that the interleaving
produced.

Their purpose is to *validate the combinatorial models*: every view map an
operation-level execution can produce must be one of the matrix-generated
view maps of :mod:`repro.models.schedules` (and conversely the standard
adversaries reach them all for small ``n``).  Benchmarks E16 and the
property tests tie the two layers together.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Mapping, Sequence

from repro.errors import RuntimeModelError
from repro.runtime.adversary import random_ordered_partition
from repro.runtime.registers import RegisterArray

__all__ = [
    "random_collect_round",
    "random_snapshot_round",
    "random_immediate_snapshot_round",
]

ViewSets = dict[int, frozenset[int]]


def random_collect_round(
    ids: Sequence[int],
    values: Mapping[int, Hashable],
    rng: random.Random,
) -> ViewSets:
    """Run one write-collect round under a random interleaving.

    Every process performs one write followed by ``n`` reads in a random
    order; the adversary interleaves the resulting atomic operations
    uniformly at random (respecting per-process program order).

    Returns the view sets ``{i: J_i}`` — which writers each process saw.
    """
    id_list = sorted(set(ids))
    array = RegisterArray(tuple(id_list))
    # Program of process p: [("write", p)] + reads in random order.
    programs: dict[int, list[tuple[str, int]]] = {}
    for process in id_list:
        reads = list(id_list)
        rng.shuffle(reads)
        programs[process] = [("write", process)] + [
            ("read", target) for target in reads
        ]
    position = {process: 0 for process in id_list}
    seen: dict[int, set] = {process: set() for process in id_list}
    pending = [
        process
        for process in id_list
        if position[process] < len(programs[process])
    ]
    while pending:
        process = rng.choice(pending)
        op, target = programs[process][position[process]]
        if op == "write":
            array.write(process, values[process])
        elif target in array.written():
            # A written None is a value: ask whether the register was
            # written, not whether it reads None.
            seen[process].add(target)
        position[process] += 1
        if position[process] == len(programs[process]):
            # Only a finished program leaves the list, which keeps its
            # order, so the draws are those of a rebuild every step.
            pending = [
                p for p in id_list if position[p] < len(programs[p])
            ]
    views = {process: frozenset(seen[process]) for process in id_list}
    for process, view in views.items():
        if process not in view:
            raise RuntimeModelError(
                f"process {process} failed to see its own write — "
                "program-order violation in the executor"
            )
    return views


def random_snapshot_round(
    ids: Sequence[int],
    values: Mapping[int, Hashable],
    rng: random.Random,
) -> ViewSets:
    """Run one write-snapshot round under a random interleaving.

    Each process performs an atomic write followed (later) by one atomic
    snapshot; the adversary interleaves the ``2n`` atomic steps randomly.
    Snapshot atomicity makes all views comparable (they form a chain).
    """
    id_list = sorted(set(ids))
    array = RegisterArray(tuple(id_list))
    steps: list[tuple[str, int]] = [("write", p) for p in id_list] + [
        ("snap", p) for p in id_list
    ]
    # Random interleaving subject to write-before-snapshot per process:
    # shuffle, then repair by bubbling each snapshot after its write.
    rng.shuffle(steps)
    ordered: list[tuple[str, int]] = []
    written: set = set()
    deferred: list[tuple[str, int]] = []
    for step in steps:
        op, process = step
        if op == "write":
            ordered.append(step)
            written.add(process)
            still_deferred = []
            for waiting in deferred:
                if waiting[1] in written:
                    ordered.append(waiting)
                else:
                    still_deferred.append(waiting)
            deferred = still_deferred
        else:
            if process in written:
                ordered.append(step)
            else:
                deferred.append(step)
    ordered.extend(deferred)

    views: dict[int, frozenset[int]] = {}
    for op, process in ordered:
        if op == "write":
            array.write(process, values[process])
        else:
            views[process] = frozenset(array.snapshot())
    return views


def random_immediate_snapshot_round(
    ids: Sequence[int],
    values: Mapping[int, Hashable],
    rng: random.Random,
) -> ViewSets:
    """Run one immediate-snapshot round: random blocks of write+snapshot.

    The adversary picks a random ordered partition; each block writes
    simultaneously and snapshots immediately after (Section A.3.3).
    """
    id_list = sorted(set(ids))
    array = RegisterArray(tuple(id_list))
    views: dict[int, frozenset[int]] = {}
    for block in random_ordered_partition(id_list, rng):
        for process in block:
            array.write(process, values[process])
        content = frozenset(array.snapshot())
        for process in block:
            views[process] = content
    return views
