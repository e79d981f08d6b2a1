"""Full-information views.

After one round of Algorithm 1, the view of process ``i`` is the set of pairs
``{(j, x_j) : j ∈ J_i}`` of inputs it managed to read.  After further rounds
the values ``x_j`` are themselves views, so a view after ``t`` rounds is a
nested chromatic structure.  :class:`View` is the immutable value object the
library uses for these sets: it behaves as a read-only mapping from colors to
values, is hashable (so it can itself be a vertex value), and iterates in
deterministic color order.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from operator import itemgetter
from typing import Any, Hashable, Iterable, Iterator, Union

from repro.errors import ChromaticityError
from repro.topology.vertex import Vertex, exact_key, value_sort_key

__all__ = ["View"]

PairsLike = Union[
    Mapping[int, Hashable],
    Iterable[tuple[int, Hashable]],
    Iterable[Vertex],
]


class View:
    """An immutable chromatic set of ``(color, value)`` pairs.

    A view represents everything a process has read during a round: one value
    per process it "saw".  Views compare equal iff they contain the same
    pairs, and support the mapping protocol (``view[j]``, ``j in view``,
    ``len(view)``).

    Parameters
    ----------
    pairs:
        A mapping ``{color: value}``, an iterable of ``(color, value)``
        tuples, or an iterable of :class:`Vertex`.  Colors must be pairwise
        distinct.

    Notes
    -----
    Construction interns through a process-wide weak registry: while an
    equal view is alive, ``View(pairs)`` returns it.  The registry holds
    its views weakly, so it keeps nothing alive.
    """

    __slots__ = ("_items", "_index", "_hash", "_skey", "__weakref__")

    def __new__(cls, pairs: PairsLike) -> "View":
        if isinstance(pairs, Mapping):
            raw: Iterable[Any] = pairs.items()
        else:
            raw = [
                (entry.color, entry.value)
                if isinstance(entry, Vertex)
                else entry
                for entry in pairs
            ]
        index: dict[int, Hashable] = {}
        plain_colors = True
        for color, value in raw:
            if type(color) is not int:
                if not isinstance(color, int):
                    raise ChromaticityError(
                        f"view colors must be ints, got {color!r}"
                    )
                plain_colors = False
            if color in index:
                raise ChromaticityError(
                    f"duplicate color {color} in view: a view holds at most "
                    "one value per process"
                )
            index[color] = value
        items = tuple(sorted(index.items(), key=_color_of))
        key: tuple = (items, tuple([exact_key(value) for _, value in items]))
        if not plain_colors:
            # ``View({True: x})`` and ``View({1: x})`` print differently.
            key += (tuple([type(color) for color, _ in items]),)
        found = _VIEWS.get(key)
        if found is None:
            found = object.__new__(cls)
            found._items = items
            found._index = index
            found._hash = hash(items)
            _VIEWS[key] = found
        return found

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, color: int) -> Hashable:
        return self._index[color]

    def get(self, color: int, default: Any = None) -> Any:
        """Return the value seen for ``color``, or ``default``."""
        return self._index.get(color, default)

    def __contains__(self, color: object) -> bool:
        return color in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple[int, Hashable]]:
        return iter(self._items)

    # ------------------------------------------------------------------
    # Chromatic accessors
    # ------------------------------------------------------------------
    @property
    def ids(self) -> frozenset:
        """The set ``J_i`` of colors appearing in the view."""
        return frozenset(self._index)

    @property
    def items(self) -> tuple[tuple[int, Hashable], ...]:
        """The pairs of the view, sorted by color."""
        return self._items

    def values(self) -> tuple[Hashable, ...]:
        """The values of the view, in color order."""
        return tuple(value for _, value in self._items)

    def vertices(self) -> tuple[Vertex, ...]:
        """Return the view's pairs as :class:`Vertex` objects."""
        return tuple(Vertex(color, value) for color, value in self._items)

    def is_subview_of(self, other: "View") -> bool:
        """``True`` iff every pair of this view also appears in ``other``.

        This is the containment ``V_j ⊆ V_i`` used in the definition of the
        standard chromatic subdivision.
        """
        if len(self._items) > len(other._items):
            return False
        other_index = other._index
        for color, value in self._items:
            try:
                if other_index[color] != value:
                    return False
            except KeyError:
                return False
        return True

    # ------------------------------------------------------------------
    # Value-object plumbing
    # ------------------------------------------------------------------
    def _sort_key(self) -> tuple:
        # Views nest (a round-t view holds round-(t-1) views), so the
        # structural key is recursive and worth caching: sorting the
        # vertex table of a 13^t-facet protocol complex touches each
        # distinct view many times.
        try:
            return self._skey
        except AttributeError:
            key = tuple(
                (color, value_sort_key(value))
                for color, value in self._items
            )
            self._skey = key
            return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, View):
            return NotImplemented
        # Structural fallback: ``View({1: True})`` and ``View({1: 1})``
        # are distinct interned objects that still compare equal.
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Re-intern on load (and on copy/deepcopy, which go through
        # ``__reduce_ex__`` too): the result is the live equal view.
        return (View, (self._items,))

    def __repr__(self) -> str:
        body = ", ".join(f"{c}:{v!r}" for c, v in self._items)
        return f"View({{{body}}})"


_color_of = itemgetter(0)

#: The interning registry: type-exact key → the live view.
_VIEWS: "weakref.WeakValueDictionary[tuple, View]" = (
    weakref.WeakValueDictionary()
)
