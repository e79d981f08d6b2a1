"""ε-approximate agreement on an exact rational grid (Definition 3).

To keep every complex finite and every value exact, the paper fixes an
integer ``m`` with ``ε`` an integral multiple of ``1/m`` and restricts all
inputs and outputs to the grid ``{0, 1/m, 2/m, …, 1}``.  We follow suit,
using :class:`fractions.Fraction` throughout — no floats, no averaging.

Two variants:

* the standard task: outputs lie in the input range and are pairwise at most
  ``ε`` apart (:func:`approximate_agreement_task`);
* the *liberal* version (Definition 4): identical, except that **any** two
  outputs in range are legal when exactly two processes participate.  The
  liberal task is what the closure machinery iterates for ``n ≥ 3`` — it
  absorbs the special power two-process executions gain from objects like
  test&set, and every lower bound for it carries over to the standard task.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Union

from repro.errors import TaskSpecificationError
from repro.tasks.inputs import full_input_complex
from repro.tasks.task import Task
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

__all__ = [
    "grid",
    "approximate_agreement_task",
    "liberal_approximate_agreement_task",
]

Rational = Union[Fraction, int, str]


def grid(m: int) -> list[Fraction]:
    """The value grid ``{0, 1/m, 2/m, …, 1}``."""
    if m < 1:
        raise TaskSpecificationError("grid resolution m must be at least 1")
    return [Fraction(k, m) for k in range(m + 1)]


def _normalize_epsilon(epsilon: Rational, m: int) -> Fraction:
    eps = Fraction(epsilon)
    if not 0 < eps:
        raise TaskSpecificationError(f"ε must be positive, got {eps}")
    if (eps * m).denominator != 1:
        raise TaskSpecificationError(
            f"ε = {eps} must be an integral multiple of 1/m = 1/{m}"
        )
    return eps


class _AgreementDelta:
    """Memoized ``Δ`` for (liberal) ε-approximate agreement.

    ``Δ(σ)`` depends only on ``ID(σ)`` and on which grid values lie in
    ``[min σ, max σ]``: the ranks ``k`` with ``min σ ≤ k/m ≤ max σ``.
    The cache keys on ``(ID(σ), low rank, high rank)``, and each complex
    is built in integer ranks — an output combination is legal iff its
    ranks differ by at most ``ε·m`` — over vertices that carry the
    task's own grid Fractions.  The legal combinations are enumerated
    directly as a band (:func:`_band`).
    """

    def __init__(self, epsilon: Fraction, m: int, liberal: bool) -> None:
        self._m = m
        self._values = grid(m)
        self._rank_of = {value: k for k, value in enumerate(self._values)}
        # Each vertex's :meth:`_value_window`, keyed on the interned
        # vertex, whose hash is cached: hashing its Fraction value would
        # run in Python on every lookup.
        self._window_of: dict[Vertex, tuple[int, int]] = {}
        # ε is an integral multiple of 1/m (``_normalize_epsilon``).
        self._span = int(epsilon * m)
        self._liberal = liberal
        self._cache: dict[
            tuple[frozenset[int], int, int], SimplicialComplex
        ] = {}

    def _window(self, sigma: Simplex) -> tuple[int, int]:
        """The ranks of the first and last grid value in σ's range."""
        low = high = None
        window_of = self._window_of
        for vertex in sigma.vertices:
            window = window_of.get(vertex)
            if window is None:
                window = window_of[vertex] = self._value_window(vertex.value)
            first, last = window
            if low is None or first < low:
                low = first
            if high is None or last > high:
                high = last
        assert low is not None and high is not None
        return max(low, 0), min(high, self._m)

    def _value_window(self, value: Rational) -> tuple[int, int]:
        """The ranks of the first and last grid value in ``[value, value]``."""
        rank = self._rank_of.get(value)
        if rank is not None:
            return rank, rank
        # Off the grid: the window starts at the first grid value above
        # it and ends at the last one below it.
        scaled = Fraction(value) * self._m
        return math.ceil(scaled), math.floor(scaled)

    def __call__(self, sigma: Simplex) -> SimplicialComplex:
        low, high = self._window(sigma)
        key = (sigma.ids, low, high)
        if key not in self._cache:
            self._cache[key] = self._build(sorted(sigma.ids), low, high)
        return self._cache[key]

    def _build(self, ids: list[int], low: int, high: int) -> SimplicialComplex:
        if low > high:
            # No grid value lies in σ's range.
            return SimplicialComplex.empty()
        window = self._values[low : high + 1]
        rows = [[Vertex(i, value) for value in window] for i in ids]
        # Two processes of the liberal task may output any two values in
        # range: a span of the whole window admits every combination.
        if self._liberal and len(ids) == 2:
            span = len(window)
        else:
            span = self._span
        # The ids are sorted and distinct, so every combination is a
        # color-sorted chromatic tuple.  Distinct combinations of one
        # length: the family is maximal.
        return SimplicialComplex.from_maximal(
            map(Simplex._from_color_sorted, _band(rows, span))
        )


def _band(
    rows: list[list[Vertex]], span: int
) -> list[tuple[Vertex, ...]]:
    """The combinations, one vertex per row, whose ranks differ by ≤ span.

    Ranks are positions in a row.  Each prefix carries its lowest and
    highest rank, so a next rank ``k`` is admissible iff
    ``high - span ≤ k ≤ low + span``; every combination is built once,
    in the order of :func:`itertools.product`.
    """
    width = len(rows[0])
    prefixes = [((vertex,), k, k) for k, vertex in enumerate(rows[0])]
    for row in rows[1:]:
        prefixes = [
            (combo + (row[k],), min(lowest, k), max(highest, k))
            for combo, lowest, highest in prefixes
            for k in range(
                max(0, highest - span), min(width, lowest + span + 1)
            )
        ]
    return [combo for combo, _, _ in prefixes]


def _output_complex(
    ids: list[int], epsilon: Fraction, m: int, liberal: bool
) -> SimplicialComplex:
    values = grid(m)
    facets = []
    for combo in product(values, repeat=len(ids)):
        if max(combo) - min(combo) <= epsilon:
            facets.append(Simplex(zip(ids, combo)))
    if liberal:
        # Definition 4: all 1-dimensional chromatic simplices are legal
        # output states, whatever the distance between their values.
        for index, i in enumerate(ids):
            for j in ids[index + 1 :]:
                for vi, vj in product(values, repeat=2):
                    facets.append(Simplex([(i, vi), (j, vj)]))
    return SimplicialComplex(facets)


def approximate_agreement_task(
    ids: Iterable[int], epsilon: Rational, m: int
) -> Task:
    """The ε-approximate agreement task of Definition 3.

    Parameters
    ----------
    ids:
        The participating process identifiers.
    epsilon:
        The agreement parameter; must be a multiple of ``1/m`` in ``(0, 1]``.
    m:
        The grid resolution.
    """
    id_list = sorted(set(ids))
    eps = _normalize_epsilon(epsilon, m)
    task = Task(
        f"{eps}-AA(n={len(id_list)}, m={m})",
        full_input_complex(id_list, grid(m)),
        _output_complex(id_list, eps, m, liberal=False),
        _AgreementDelta(eps, m, liberal=False),
    )
    task.epsilon = eps  # type: ignore[attr-defined]
    task.grid_resolution = m  # type: ignore[attr-defined]
    return task


def liberal_approximate_agreement_task(
    ids: Iterable[int], epsilon: Rational, m: int
) -> Task:
    """The liberal ε-approximate agreement task of Definition 4."""
    id_list = sorted(set(ids))
    eps = _normalize_epsilon(epsilon, m)
    task = Task(
        f"liberal-{eps}-AA(n={len(id_list)}, m={m})",
        full_input_complex(id_list, grid(m)),
        _output_complex(id_list, eps, m, liberal=True),
        _AgreementDelta(eps, m, liberal=True),
    )
    task.epsilon = eps  # type: ignore[attr-defined]
    task.grid_resolution = m  # type: ignore[attr-defined]
    return task
