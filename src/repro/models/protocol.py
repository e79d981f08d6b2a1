"""Protocol complexes ``P^(t)`` and their templates.

The one-round operator ``Ξ`` of a model sends a simplex to its one-round
complex and a complex to the union over its simplices (Section 2.2).
:class:`ProtocolOperator` memoizes the iteration.

Solvability constrains ``f`` on ``P^(t)(σ)`` for every input simplex
``σ``, and those complexes repeat: ``σ``'s with equal
:meth:`~repro.models.base.ComputationModel.shape_key` have the same
complex up to relabelling their inputs.  A :class:`ProtocolTemplate`
is that complex expanded once, with each vertex written as a *shape* —
its value with the depth-``t`` input leaves replaced by their colors —
and a *carrier*, the colors whose inputs it holds.  The pair
``(shape, σ's input vertices on the carrier)`` then names a vertex of
``P^(t)(σ)`` without building its view.  :func:`key_sort_key` computes
the sort key of the vertex a key names from the key alone, so keys can
be ranked in vertex order without building a view, and
:func:`decode_vertex` builds the view when it is needed
(:func:`encode_vertex` goes back).  A shape is a
function of the vertex alone, so templates of different participant
sets name a shared vertex (a solo view, say) by the same key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional

from repro.errors import ModelError
from repro.models.base import ComputationModel
from repro.telemetry import default_registry, span
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex, value_sort_key
from repro.topology.views import View

__all__ = [
    "ProtocolOperator",
    "ProtocolTemplate",
    "VertexKey",
    "decode_vertex",
    "encode_vertex",
    "key_sort_key",
]

#: Shared across operator instances on purpose: a sweep that constructs many
#: short-lived operators still aggregates into one hit/miss line.
_OF_SIMPLEX_STATS = default_registry().cache("protocol-operator.of-simplex")

#: A protocol vertex named without its view: ``(shape, input vertices)``.
VertexKey = tuple[Vertex, tuple[Vertex, ...]]


@dataclass(frozen=True)
class ProtocolTemplate:
    """``P^(t)`` of one shape key, with vertices as shapes and carriers.

    Template vertex ``k`` has the shape ``shapes[k]`` and holds the
    inputs of the colors ``carriers[k]``, in color order.  A template
    built for ``σ`` itself (the shape key ``σ``) keeps its vertices
    whole: each is its own shape, with an empty carrier.
    """

    shapes: tuple[Vertex, ...]
    carriers: tuple[tuple[int, ...], ...]
    #: The facets, as template vertex indices in color order.
    facets: tuple[tuple[int, ...], ...]

    def keys(self, sigma: Simplex) -> list[VertexKey]:
        """The keys of ``P^(t)(σ)``'s vertices, in template order."""
        inputs = {vertex.color: vertex for vertex in sigma.vertices}
        return [
            (shape, tuple([inputs[color] for color in carrier]))
            for shape, carrier in zip(self.shapes, self.carriers)
        ]


def decode_vertex(
    key: VertexKey, rounds: int, memo: Optional[dict] = None
) -> Vertex:
    """The protocol vertex a ``rounds``-round key names.

    ``memo`` caches the views built on the way, keyed by their shape and
    the key's inputs; pass one dict to decode many keys, and a view
    shared by several vertices is built once.
    """
    shape, inputs = key
    if not inputs:
        return shape
    values = {vertex.color: vertex.value for vertex in inputs}
    if memo is None:
        memo = {}
    return Vertex(
        shape.color, _fill(shape.value, rounds, values, inputs, memo)
    )


def encode_vertex(
    vertex: Vertex, rounds: int, memo: Optional[dict] = None
) -> Optional[VertexKey]:
    """The key that a relabelled template gives ``vertex``.

    The inverse of :func:`decode_vertex` on such keys; ``None`` if
    ``vertex`` cannot be a ``rounds``-round vertex of a relabelled
    template.  ``memo`` caches the shapes of the views met on the way;
    pass one dict to encode many vertices.
    """
    leaves: dict[int, Hashable] = {}
    try:
        shape = _shape(
            vertex.value, vertex.color, rounds, leaves,
            {} if memo is None else memo,
        )
    except ValueError:
        return None
    return (
        Vertex(vertex.color, shape),
        tuple([Vertex(color, leaves[color]) for color in sorted(leaves)]),
    )


def key_sort_key(
    key: VertexKey, rounds: int, memo: Optional[dict] = None
) -> tuple:
    """``decode_vertex(key, rounds)._sort_key()``, built without a view.

    The depth-``rounds`` leaves get the sort keys of the key's input
    values, and each level above them the tuple that
    :func:`~repro.topology.vertex.value_sort_key` gives a view or a
    ``(box output, view)`` pair.  ``memo`` caches them per shape and
    inputs, as in :func:`decode_vertex`; pass one dict to rank many
    keys.
    """
    shape, inputs = key
    if not inputs:
        return shape._sort_key()
    leaves = {vertex.color: value_sort_key(vertex.value) for vertex in inputs}
    if memo is None:
        memo = {}
    return (
        shape.color,
        _fill_sort_key(shape.value, rounds, leaves, inputs, memo),
    )


def _shape(
    value: Hashable,
    color: int,
    depth: int,
    leaves: dict[int, Hashable],
    memo: dict,
) -> Hashable:
    """``value`` with its depth-``depth`` leaves replaced by their colors.

    ``color`` holds ``value``; each replaced leaf is recorded in
    ``leaves`` under its color.  ``memo`` caches each view's shape and
    leaves by the view and its depth.  Raises :class:`ValueError` unless
    ``value`` is ``depth`` levels of views (or ``(box output, view)``
    pairs) with one leaf per color.
    """
    if depth == 0:
        found = ((color, value),)
        shape: Hashable = color
    elif isinstance(value, tuple):
        box, view = value
        return (box, _shape(view, color, depth, leaves, memo))
    else:
        cached = memo.get((value, depth))
        if cached is None:
            if not isinstance(value, View):
                raise ValueError(f"{value!r} is not a view")
            inner: dict[int, Hashable] = {}
            cached = memo[(value, depth)] = (
                View(
                    [
                        (seen, _shape(item, seen, depth - 1, inner, memo))
                        for seen, item in value
                    ]
                ),
                tuple(inner.items()),
            )
        shape, found = cached
    for leaf_color, leaf in found:
        known = leaves.setdefault(leaf_color, leaf)
        if known is not leaf and known != leaf:
            raise ValueError(f"two depth-0 values of color {leaf_color}")
    return shape


def _fill(
    shape: Hashable,
    depth: int,
    values: Mapping[int, Hashable],
    inputs: tuple[Vertex, ...],
    memo: dict,
) -> Hashable:
    """Invert :func:`_shape`: put ``values``, read off ``inputs``, back."""
    if depth == 0:
        return values[shape]  # type: ignore[index]
    if isinstance(shape, tuple):
        box, view = shape
        return (box, _fill(view, depth, values, inputs, memo))
    found = memo.get((shape, inputs))
    if found is None:
        assert isinstance(shape, View)
        found = memo[(shape, inputs)] = View(
            [
                (seen, _fill(item, depth - 1, values, inputs, memo))
                for seen, item in shape
            ]
        )
    return found


def _fill_sort_key(
    shape: Hashable,
    depth: int,
    leaves: Mapping[int, tuple],
    inputs: tuple[Vertex, ...],
    memo: dict,
) -> tuple:
    """``value_sort_key`` of what :func:`_fill` would build."""
    if depth == 0:
        return leaves[shape]  # type: ignore[index]
    if isinstance(shape, tuple):
        box, view = shape
        return (
            "tuple",
            (
                value_sort_key(box),
                _fill_sort_key(view, depth, leaves, inputs, memo),
            ),
        )
    found: Optional[tuple] = memo.get((shape, inputs))
    if found is None:
        assert isinstance(shape, View)
        items = tuple(
            [
                (seen, _fill_sort_key(item, depth - 1, leaves, inputs, memo))
                for seen, item in shape
            ]
        )
        found = memo[(shape, inputs)] = ("View", items)
    return found


class ProtocolOperator:
    """Memoized iteration of a model's one-round operator ``Ξ``.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.ComputationModel`.
    """

    def __init__(self, model: ComputationModel) -> None:
        self._model = model
        self._simplex_cache: dict[
            tuple[Simplex, int], SimplicialComplex
        ] = {}
        self._templates: dict[tuple[Hashable, int], ProtocolTemplate] = {}

    @property
    def model(self) -> ComputationModel:
        """The underlying computation model."""
        return self._model

    def of_simplex(self, sigma: Simplex, rounds: int) -> SimplicialComplex:
        """``P^(t)(σ)`` — executions where exactly ``ID(σ)`` participate.

        For ``rounds == 0`` this is the complex of ``σ`` itself (``Ξ_0`` is
        the identity, Claim 1's setting).
        """
        key = (sigma, rounds)
        found = self._simplex_cache.get(key)
        if found is None:
            _OF_SIMPLEX_STATS.miss()
            if rounds == 0:
                found = SimplicialComplex.from_simplex(sigma)
            elif rounds < 0:
                raise ModelError(
                    f"rounds must be non-negative, got {rounds}"
                )
            else:
                # Span only on a miss; the recursion below nests one span
                # per expanded round under this one.
                with span(
                    "protocol/of-simplex",
                    model=self._model.name,
                    rounds=rounds,
                ):
                    previous = self.of_simplex(sigma, rounds - 1)
                    found = self._model.protocol_complex(previous)
            self._simplex_cache[key] = found
        else:
            _OF_SIMPLEX_STATS.hit()
        return found

    def template(self, sigma: Simplex, rounds: int) -> ProtocolTemplate:
        """The template of ``σ``'s shape key, expanded from ``σ`` on a miss.

        The expansion goes through :meth:`of_simplex` on the real ``σ``,
        so a box input function ``α`` reads real values.
        """
        shape_key = self._model.shape_key(sigma, rounds)
        found = self._templates.get((shape_key, rounds))
        if found is None:
            # A template keyed by σ itself serves σ alone, and its model
            # promises nothing about the form of its values: keep them.
            found = self._templates[(shape_key, rounds)] = _template_of(
                self.of_simplex(sigma, rounds),
                rounds,
                relabel=shape_key != sigma,
            )
        return found


def _template_of(
    protocol: SimplicialComplex, rounds: int, relabel: bool
) -> ProtocolTemplate:
    vertices = protocol.sorted_vertices()
    index = {vertex: k for k, vertex in enumerate(vertices)}
    facets = tuple(
        sorted(
            tuple([index[vertex] for vertex in facet.vertices])
            for facet in protocol.facets
        )
    )
    if not relabel:
        return ProtocolTemplate(
            tuple(vertices), ((),) * len(vertices), facets
        )
    shapes = []
    carriers = []
    memo: dict = {}
    for vertex in vertices:
        leaves: dict[int, Hashable] = {}
        value = _shape(vertex.value, vertex.color, rounds, leaves, memo)
        shapes.append(Vertex(vertex.color, value))
        carriers.append(tuple(sorted(leaves)))
    return ProtocolTemplate(tuple(shapes), tuple(carriers), facets)
