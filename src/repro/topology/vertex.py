"""Chromatic vertices.

A vertex of a chromatic complex is a pair ``(color, value)`` where ``color``
is a process identifier in ``[n] = {1, …, n}`` and ``value`` is an arbitrary
immutable payload — an input value, an output value, or a full-information
view accumulated during an execution (Appendix A.1 of the paper).

Vertices are immutable, hashable, and totally ordered so that simplices and
complexes can be iterated deterministically.  Ordering compares colors first
and then a structural key of the value (see :func:`value_sort_key`), which
gives a stable order even across heterogeneous value types such as
:class:`fractions.Fraction`, tuples, and :class:`repro.topology.views.View`.

Vertices are also *interned*: constructing a vertex equal to a live one
returns that object (see :func:`exact_key` for what "equal" means here),
so set and dict lookups succeed on identity, and the hash and sort key
are computed once per distinct value.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import total_ordering
from typing import Any, Hashable

__all__ = ["Vertex", "value_sort_key", "exact_key"]

#: Payload types for which "same type and ``==``" means interchangeable:
#: the same ``repr``, the same sort key, the same behaviour everywhere.
#: Floats are left out on purpose (``0.0 == -0.0`` but their reprs
#: differ).
_PLAIN_KINDS = frozenset({int, bool, str, bytes, Fraction, type(None)})


def exact_key(value: Any) -> Hashable:
    """The type-exact part of an interning key for ``value``.

    ``(value, exact_key(value))`` compares equal for two values only if
    they are interchangeable: ``==`` alone would merge ``True``, ``1``
    and ``Fraction(1)``, whose reprs and sort keys differ, and then what
    the program prints would depend on which object was built first.
    Plain scalars contribute their type, tuples and frozensets recurse,
    and every other payload — interned views and vertices included —
    contributes its ``id``.  An interning registry keeps its keys, hence
    the payload objects, alive, so such an ``id`` is never reused while
    the key exists; and for an interned object, identity is exactly
    "equal and interchangeable".
    """
    kind = type(value)
    if kind in _PLAIN_KINDS:
        return kind
    if kind is tuple:
        return tuple([exact_key(item) for item in value])
    if kind is frozenset:
        return frozenset([(item, exact_key(item)) for item in value])
    return id(value)


def _rounded(number: Fraction) -> float:
    """A float that never reverses the order of two numbers.

    Rounding is monotone, so ``_rounded(a) < _rounded(b)`` implies
    ``a < b``; equal floats leave the decision to the exact value that
    follows them in the key.  Comparing two floats is a C-level
    operation, while two Fractions compare through Python-level
    ``__eq__`` and ``__lt__`` calls, once per level of a nested key.
    """
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def value_sort_key(value: Any) -> tuple:
    """Return a tuple usable to totally order heterogeneous vertex values.

    The key is structural and recursive: numbers sort among themselves,
    strings among themselves, and containers lexicographically by the keys of
    their elements.  Two values of different kinds are ordered by a type tag,
    so comparison never raises ``TypeError``.

    This function only needs to induce *some* deterministic total order; it is
    used for canonical iteration, never for semantics.
    """
    # Booleans are ints in Python; give them their own tag to keep the order
    # stable if both appear.
    if isinstance(value, bool):
        return ("bool", int(value))
    if isinstance(value, (int, Fraction, float)):
        exact = value if type(value) is Fraction else Fraction(value)
        return ("num", _rounded(exact), exact)
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, bytes):
        return ("bytes", value)
    if value is None:
        return ("none",)
    if isinstance(value, tuple):
        return ("tuple", tuple(value_sort_key(item) for item in value))
    if isinstance(value, frozenset):
        return ("fset", tuple(sorted(value_sort_key(item) for item in value)))
    # Objects can opt into ordering by exposing a `_sort_key` method
    # (View and Simplex do).
    sort_key = getattr(value, "_sort_key", None)
    if callable(sort_key):
        return (type(value).__name__, sort_key())
    # Fall back to the repr, which is stable for immutable value objects.
    return (type(value).__name__, repr(value))


@total_ordering
class Vertex:
    """An immutable chromatic vertex ``(color, value)``.

    Parameters
    ----------
    color:
        The process identifier carrying this vertex.  The paper uses colors
        in ``{1, …, n}``; the library only requires a hashable integer.
    value:
        Any hashable payload.  For input complexes this is an input value;
        for protocol complexes it is a :class:`~repro.topology.views.View`
        (possibly paired with a black-box output).

    Notes
    -----
    Construction interns through a process-wide weak registry: while an
    equal vertex is alive, ``Vertex(color, value)`` returns it.  The
    registry holds its vertices weakly, so it keeps nothing alive.
    """

    __slots__ = ("_color", "_value", "_hash", "_skey", "__weakref__")

    def __new__(cls, color: int, value: Hashable) -> "Vertex":
        if not isinstance(color, int):
            raise TypeError(f"vertex color must be an int, got {color!r}")
        key = (color, value, type(color), exact_key(value))
        found = _VERTICES.get(key)
        if found is None:
            found = object.__new__(cls)
            found._color = color
            found._value = value
            found._hash = hash((color, value))
            _VERTICES[key] = found
        return found

    @property
    def color(self) -> int:
        """The process identifier (the paper's *color* / *ID*)."""
        return self._color

    @property
    def value(self) -> Hashable:
        """The payload carried by the vertex."""
        return self._value

    def _sort_key(self) -> tuple:
        # Cached on first use: canonical vertex-table construction sorts
        # the same vertices over and over, and the structural key of a
        # deep View payload is the expensive part.
        try:
            return self._skey
        except AttributeError:
            key = (self._color, value_sort_key(self._value))
            self._skey = key
            return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Vertex):
            return NotImplemented
        # Structural fallback: interning never merges ``Vertex(1, 0)``
        # and ``Vertex(1, Fraction(0))``, but they still compare equal.
        return self._color == other._color and self._value == other._value

    def __lt__(self, other: "Vertex") -> bool:
        if not isinstance(other, Vertex):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Re-intern on load (and on copy/deepcopy, which go through
        # ``__reduce_ex__`` too): the result is the live equal vertex.
        return (Vertex, (self._color, self._value))

    def __repr__(self) -> str:
        return f"Vertex({self._color}, {self._value!r})"


#: The interning registry: type-exact key → the live vertex.
_VERTICES: "weakref.WeakValueDictionary[tuple, Vertex]" = (
    weakref.WeakValueDictionary()
)
