"""Affine sub-models of IIS.

An *affine model* (Kuznetsov–Rieutord–He, cited as [31]) is obtained from the
IIS model by removing some executions — i.e., keeping a subcomplex of the
standard chromatic subdivision, round after round.  The speedup theorem
(Theorem 1) applies to any affine model that still *allows solo executions*.

:class:`AffineModel` wraps a base iterated model with a predicate on view
maps; it refuses every use on a participant set where the predicate kills a
solo execution, since the speedup machinery would then be unsound for the
resulting model.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import ModelError
from repro.models.base import IteratedModel
from repro.models.schedules import OneRoundSchedule

__all__ = ["AffineModel", "k_concurrency_model", "no_synchrony_model"]

ViewMap = dict[int, frozenset[int]]


class AffineModel(IteratedModel):
    """A facet-restricted iterated model.

    Every use on a participant set verifies that solo executions survive
    the restriction, as required by the hypotheses of Theorem 1.

    Parameters
    ----------
    base:
        The model whose executions are being restricted (typically IIS).
    keep:
        Predicate on view maps; executions for which it returns ``False``
        are removed from every round.
    name:
        Label for reports.
    """

    def __init__(
        self,
        base: IteratedModel,
        keep: Callable[[ViewMap], bool],
        name: Optional[str] = None,
    ) -> None:
        self._base = base
        self._keep = keep
        self.name = name or f"affine({base.name})"

    def schedules(self, ids: Iterable[int]) -> tuple[OneRoundSchedule, ...]:
        """The base model's schedules whose view map the predicate keeps."""
        participants = frozenset(ids)
        kept = tuple(
            schedule
            for schedule in self._base.schedules(participants)
            if self._keep(schedule.view_map())
        )
        self._verify_solo(participants, kept)
        return kept

    def _verify_solo(
        self, ids: frozenset[int], kept: tuple[OneRoundSchedule, ...]
    ) -> None:
        for process in ids:
            solo = frozenset({process})
            if not any(schedule.view_of(process) == solo for schedule in kept):
                raise ModelError(
                    f"affine restriction removes every solo execution of "
                    f"process {process} among {sorted(ids)}; the speedup "
                    "theorem does not apply to such models"
                )


def _block_sizes(view_map: ViewMap) -> list:
    """Temporal block sizes of an immediate-snapshot view map.

    Views of an IS execution are nested; processes sharing a view form a
    block.  Only call on IS view maps (the base model guarantees it when
    the base is :class:`~repro.models.immediate.ImmediateSnapshotModel`).
    """
    by_view: dict[frozenset[int], int] = {}
    for view in view_map.values():
        by_view[view] = by_view.get(view, 0) + 1
    return [count for _, count in sorted(by_view.items(), key=lambda kv: len(kv[0]))]


def k_concurrency_model(base: IteratedModel, k: int) -> AffineModel:
    """The k-concurrency affine model (Gafni–Guerraoui, cited as [21]).

    At most ``k`` processes are active simultaneously: every immediate-
    snapshot block has size at most ``k``.  For ``k = 1`` the executions
    are fully sequential; for ``k ≥ n`` the model coincides with the base.
    Solo executions survive for every ``k ≥ 1``, so the speedup theorem
    applies (Theorem 1's hypothesis).
    """
    if k < 1:
        raise ModelError("concurrency level k must be at least 1")

    def keep(view_map: ViewMap) -> bool:
        return all(size <= k for size in _block_sizes(view_map))

    return AffineModel(base, keep, name=f"{k}-concurrency({base.name})")


def no_synchrony_model(base: IteratedModel) -> AffineModel:
    """The affine model that forbids the fully synchronous execution.

    A minimal, instructive affine restriction: one facet of the chromatic
    subdivision is removed each round.  Solo executions are untouched.
    """

    def keep(view_map: ViewMap) -> bool:
        if len(view_map) <= 1:
            # The solo "synchronous" run of a single participant must stay:
            # a one-process round has no asynchrony to remove.
            return True
        everyone = frozenset(view_map)
        return not all(view == everyone for view in view_map.values())

    return AffineModel(base, keep, name=f"no-sync({base.name})")
