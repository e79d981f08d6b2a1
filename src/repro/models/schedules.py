"""One-round communication schedules (Appendix A.3.4).

The paper represents one round of communication among the participants
``I`` by a matrix

.. code-block:: text

    M = [ P_0  P_1  …  P_r ]
        [ I_0  I_1  …  I_r ]

subject to the five conditions (1) ``0 ≤ r ≤ |I| - 1``, (2) ``P_s ⊆ I``,
(3) ``P_0 = I``, (4) the ``I_s`` partition ``I``, and (5)
``∪_{j=s}^r I_j ⊆ P_s``.  The semantics: every process in group ``I_s``
reads exactly the values written by ``P_s``, so its one-round view is
``{(j, x_j) : j ∈ P_s}``.

* The **collect** model admits every such matrix.
* The **snapshot** model additionally requires the view sets to be pairwise
  comparable (they form a chain — footnote 1 of the paper).
* The **immediate snapshot** model requires that whenever ``q ∈ P_i`` and
  ``q ∈ I_j``, then ``P_j ⊆ P_i`` (footnote 2); these matrices correspond
  exactly to *ordered set partitions* ``B_1, …, B_k`` of ``I`` in which the
  processes of block ``B_s`` all see ``B_1 ∪ … ∪ B_s``.

This module enumerates schedules for all three models and converts between
the matrix form and the ordered-blocks form.  Enumeration is exhaustive and
deterministic; distinct matrices can induce the same view map, so every
consumer — the one-round complexes of the register and augmented models,
the matrix adversaries and E16 — reads the shared pool of one
matrix per view map from :func:`distinct_schedules`, the one place that
decides which schedules a model admits.

An immediate-snapshot round is one ordered partition of the
participants, and the runtime's adversaries build each round's schedule
from its temporal blocks.  :func:`schedule_from_blocks` therefore interns
its result: equal block lists share one already-validated schedule, so
its derived data (sorted participants, view map, blocks, trace tuples)
is computed once per process, not once per round.  The table is a
fixed-size LRU of ``_BLOCK_SCHEDULES`` (256) entries, enough for every
immediate-snapshot schedule of four processes and of their subsets
(149).  It is bounded because larger systems mostly draw distinct
partitions (541 ordered partitions of five processes, 4,683 of six),
where an unbounded table would only grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import ScheduleError

__all__ = [
    "OneRoundSchedule",
    "ordered_partitions",
    "collect_schedules",
    "snapshot_schedules",
    "immediate_snapshot_schedules",
    "schedule_from_blocks",
    "distinct_schedules",
]

Ids = frozenset[int]
IdTuples = tuple[tuple[int, ...], ...]
ViewMap = dict[int, Ids]


class _Derived:
    """Data a schedule derives from its matrix, computed at most once.

    Declared on this plain base class, so it is no dataclass field and
    never enters ``__eq__``, ``__hash__`` or ``repr``.  ``None`` until
    first use, except the participant set.
    """

    _participants: Ids
    _ordered: Optional[tuple[int, ...]]
    _view_map: Optional[ViewMap]
    _immediate: Optional[bool]
    _blocks: Optional[tuple[Ids, ...]]
    _as_tuples: Optional[tuple[IdTuples, Optional[IdTuples]]]


@dataclass(frozen=True)
class OneRoundSchedule(_Derived):
    """A one-round communication pattern in matrix form.

    Attributes
    ----------
    groups:
        The groups ``I_0, …, I_r`` (a partition of the participants).
    views:
        The view sets ``P_0, …, P_r``; every process of ``groups[s]`` reads
        exactly the writes of ``views[s]``.
    """

    groups: tuple[Ids, ...]
    views: tuple[Ids, ...]

    def __post_init__(self) -> None:
        # Coerce to tuples of frozensets so every schedule is a hashable
        # value: one instance is shared by every adversary drawing it.
        object.__setattr__(self, "groups", tuple(map(frozenset, self.groups)))
        object.__setattr__(self, "views", tuple(map(frozenset, self.views)))
        if len(self.groups) != len(self.views):
            raise ScheduleError(
                "schedule must have as many groups as view sets"
            )
        if not self.groups:
            raise ScheduleError("schedule must have at least one group")
        participants = frozenset(chain.from_iterable(self.groups))
        seen: set = set()
        for group in self.groups:
            if not group:
                raise ScheduleError("schedule groups must be non-empty")
            if group & seen:
                raise ScheduleError("schedule groups must be disjoint")
            seen |= group
        if self.views[0] != participants:
            raise ScheduleError(
                "condition (3) violated: P_0 must equal the participant set"
            )
        suffix: Ids = frozenset()
        for index in range(len(self.groups) - 1, -1, -1):
            suffix = suffix | self.groups[index]
            if not suffix <= self.views[index]:
                raise ScheduleError(
                    "condition (5) violated: P_s must contain "
                    "I_s ∪ … ∪ I_r"
                )
            if not self.views[index] <= participants:
                raise ScheduleError(
                    "condition (2) violated: P_s must be a subset of I"
                )
        # Every derived attribute is set here, in one order, so all
        # schedules keep one compact attribute layout.
        object.__setattr__(self, "_participants", participants)
        object.__setattr__(self, "_ordered", None)
        object.__setattr__(self, "_view_map", None)
        object.__setattr__(self, "_immediate", None)
        object.__setattr__(self, "_blocks", None)
        object.__setattr__(self, "_as_tuples", None)

    @property
    def participants(self) -> Ids:
        """The participant set ``I = I_0 ∪ … ∪ I_r``."""
        return self._participants

    @property
    def ordered_participants(self) -> tuple[int, ...]:
        """The participants in id order, sorted once."""
        cached = self._ordered
        if cached is None:
            cached = tuple(sorted(self._participants))
            object.__setattr__(self, "_ordered", cached)
        return cached

    def views_by_process(self) -> Mapping[int, Ids]:
        """The schedule's own view map ``{i: P_s}``, computed once.

        Shared by every reader of the schedule: read it, never change it.
        """
        cached = self._view_map
        if cached is None:
            cached = {}
            for group, view in zip(self.groups, self.views):
                for process in group:
                    cached[process] = view
            object.__setattr__(self, "_view_map", cached)
        return cached

    def view_map(self) -> ViewMap:
        """The per-process view sets ``{i: P_s}`` for ``i ∈ I_s``.

        Each call returns a fresh dict the caller may change.
        """
        return dict(self.views_by_process())

    def view_of(self, process: int) -> Ids:
        """The set of processes whose writes ``process`` reads."""
        try:
            return self.views_by_process()[process]
        except KeyError:
            raise ScheduleError(
                f"process {process} does not participate"
            ) from None

    def is_snapshot(self) -> bool:
        """``True`` iff the view sets form a chain (snapshot condition)."""
        ordered = sorted(self.views, key=len)
        return all(
            ordered[i] <= ordered[i + 1] for i in range(len(ordered) - 1)
        )

    def is_immediate_snapshot(self) -> bool:
        """``True`` iff the matrix satisfies the immediate-snapshot condition.

        For every group ``I_i`` and every ``q ∈ P_i`` with ``q ∈ I_j``, it
        must hold that ``P_j ⊆ P_i``.
        """
        cached = self._immediate
        if cached is not None:
            return cached
        result = self._check_immediate_snapshot()
        object.__setattr__(self, "_immediate", result)
        return result

    def _check_immediate_snapshot(self) -> bool:
        location = {}
        for index, group in enumerate(self.groups):
            for process in group:
                location[process] = index
        for index, view in enumerate(self.views):
            for seen_process in view:
                other = location[seen_process]
                if not self.views[other] <= view:
                    return False
        return True

    def blocks(self) -> tuple[Ids, ...]:
        """Temporal blocks ``B_1, …, B_k`` for immediate-snapshot schedules.

        The matrix orders groups by decreasing views; temporally the group
        with the *smallest* view acts first.  Only meaningful when
        :meth:`is_immediate_snapshot` holds.

        Raises
        ------
        ScheduleError
            If the schedule is not an immediate-snapshot schedule.
        """
        cached = self._blocks
        if cached is not None:
            return cached
        if not self.is_immediate_snapshot():
            raise ScheduleError(
                "temporal blocks are only defined for immediate-snapshot "
                "schedules"
            )
        indexed = sorted(
            range(len(self.groups)), key=lambda s: len(self.views[s])
        )
        merged: list[Ids] = []
        merged_views: list[Ids] = []
        for s in indexed:
            if merged_views and self.views[s] == merged_views[-1]:
                merged[-1] = merged[-1] | self.groups[s]
            else:
                merged.append(self.groups[s])
                merged_views.append(self.views[s])
        blocks = tuple(merged)
        object.__setattr__(self, "_blocks", blocks)
        return blocks

    def as_tuples(self) -> tuple[IdTuples, Optional[IdTuples]]:
        """The schedule as sorted id tuples, the form execution traces keep.

        ``(blocks, None)`` with the temporal blocks of an
        immediate-snapshot schedule, otherwise ``(groups, views)``: the
        matrix itself.
        """
        cached = self._as_tuples
        if cached is None:
            if self.is_immediate_snapshot():
                cached = (_sorted_tuples(self.blocks()), None)
            else:
                cached = (
                    _sorted_tuples(self.groups),
                    _sorted_tuples(self.views),
                )
            object.__setattr__(self, "_as_tuples", cached)
        return cached


def _sorted_tuples(sets: Iterable[Ids]) -> IdTuples:
    return tuple(tuple(sorted(ids)) for ids in sets)


#: How many block schedules :func:`schedule_from_blocks` keeps interned.
_BLOCK_SCHEDULES = 256


def schedule_from_blocks(blocks: Sequence[Iterable[int]]) -> OneRoundSchedule:
    """The immediate-snapshot schedule of temporal blocks ``B_1…B_k``.

    Every process of block ``B_s`` sees ``B_1 ∪ … ∪ B_s``.  The returned
    matrix lists groups in the paper's order (largest view first).  Equal
    block lists (in the same temporal order) return one shared schedule
    while it stays in the interning table; an invalid list raises
    :class:`~repro.errors.ScheduleError` on every call.
    """
    return _block_schedule(tuple(map(frozenset, blocks)))


@lru_cache(maxsize=_BLOCK_SCHEDULES)
def _block_schedule(resolved: tuple[Ids, ...]) -> OneRoundSchedule:
    """Build and validate the schedule of ``resolved`` (an interning miss)."""
    if not resolved:
        raise ScheduleError("at least one block is required")
    groups: list[Ids] = []
    views: list[Ids] = []
    prefix: Ids = frozenset()
    for block in resolved:
        if not block:
            raise ScheduleError("blocks must be non-empty")
        if block & prefix:
            raise ScheduleError("blocks must be disjoint")
        prefix = prefix | block
        groups.append(block)
        views.append(prefix)
    groups.reverse()
    views.reverse()
    schedule = OneRoundSchedule(tuple(groups), tuple(views))
    # Prefix views make every such matrix immediate-snapshot, with the
    # given blocks as its temporal blocks.
    object.__setattr__(schedule, "_immediate", True)
    object.__setattr__(schedule, "_blocks", resolved)
    return schedule


def _set_partitions(items: tuple[int, ...]) -> Iterator[list[Ids]]:
    """Yield every partition of ``items`` into non-empty unordered parts."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _set_partitions(rest):
        for index in range(len(partial)):
            updated = list(partial)
            updated[index] = updated[index] | {first}
            yield updated
        yield partial + [frozenset({first})]


def ordered_partitions(ids: Iterable[int]) -> Iterator[tuple[Ids, ...]]:
    """Yield every ordered set partition of ``ids`` (temporal block order).

    The number of ordered partitions of an ``n``-set is the ``n``-th Fubini
    number (1, 3, 13, 75, 541, …) — exactly the facet count of the standard
    chromatic subdivision.
    """
    from itertools import permutations

    items = tuple(sorted(set(ids)))
    if not items:
        return
    for partition in _set_partitions(items):
        for arrangement in permutations(partition):
            yield tuple(arrangement)


def immediate_snapshot_schedules(
    ids: Iterable[int],
) -> Iterator[OneRoundSchedule]:
    """Yield the immediate-snapshot schedules: one per ordered partition."""
    for blocks in ordered_partitions(ids):
        yield schedule_from_blocks(blocks)


def _subsets_containing(
    lower: Ids, universe: Ids
) -> Iterator[Ids]:
    """Yield every set ``S`` with ``lower ⊆ S ⊆ universe``."""
    optional = tuple(sorted(universe - lower))
    for size in range(len(optional) + 1):
        for extra in combinations(optional, size):
            yield lower | frozenset(extra)


def collect_schedules(ids: Iterable[int]) -> Iterator[OneRoundSchedule]:
    """Yield every collect-model schedule (matrix) over ``ids``.

    Enumeration follows the matrix conditions directly: for every ordered
    partition ``I_0, …, I_r`` (in matrix order) choose each ``P_s`` with
    ``I_s ∪ … ∪ I_r ⊆ P_s ⊆ I`` and ``P_0 = I``.  Distinct matrices may
    induce the same view map; :func:`distinct_schedules` keeps one per
    view map.
    """
    participants = frozenset(ids)
    if not participants:
        return
    for groups in ordered_partitions(participants):
        suffixes: list[Ids] = []
        suffix: Ids = frozenset()
        for group in reversed(groups):
            suffix = suffix | group
            suffixes.append(suffix)
        suffixes.reverse()

        def choose(
            index: int, chosen: tuple[Ids, ...]
        ) -> Iterator[OneRoundSchedule]:
            if index == len(groups):
                yield OneRoundSchedule(groups, chosen)
                return
            if index == 0:
                yield from choose(1, (participants,))
                return
            for view in _subsets_containing(suffixes[index], participants):
                yield from choose(index + 1, chosen + (view,))

        yield from choose(0, ())


def snapshot_schedules(ids: Iterable[int]) -> Iterator[OneRoundSchedule]:
    """Yield the snapshot-model schedules: collect matrices whose views chain."""
    for schedule in collect_schedules(ids):
        if schedule.is_snapshot():
            yield schedule


def _view_map_key(view_map: ViewMap) -> tuple:
    """The per-process view tuples: the dedup key and the sort order."""
    return tuple(
        (process, tuple(sorted(view)))
        for process, view in sorted(view_map.items())
    )


_ENUMERATORS = {
    "immediate": immediate_snapshot_schedules,
    "snapshot": snapshot_schedules,
    "collect": collect_schedules,
}
_DISTINCT: dict[tuple[str, Ids], tuple[OneRoundSchedule, ...]] = {}


def distinct_schedules(
    kind: str, ids: Iterable[int]
) -> tuple[OneRoundSchedule, ...]:
    """One schedule per distinct view map of a model over ``ids``.

    ``kind`` is ``"immediate"``, ``"snapshot"`` or ``"collect"``.  Each
    view map keeps the first matrix its enumerator yields, and the pool
    is ordered by the per-process view tuples.  The pool is built once
    per ``(kind, frozenset(ids))`` and shared process-wide.
    """
    key = (kind, frozenset(ids))
    pool = _DISTINCT.get(key)
    if pool is not None:
        return pool
    try:
        enumerate_schedules = _ENUMERATORS[kind]
    except KeyError:
        raise ScheduleError(
            f"unknown schedule kind {kind!r}: use one of "
            f"{', '.join(sorted(_ENUMERATORS))}"
        ) from None
    seen: dict[tuple, OneRoundSchedule] = {}
    for schedule in enumerate_schedules(key[1]):
        seen.setdefault(_view_map_key(schedule.view_map()), schedule)
    pool = _DISTINCT[key] = tuple(seen[k] for k in sorted(seen))
    return pool
