"""Deciding ``t``-round solvability by exhaustive simplicial-map search.

A task ``Π = (I, O, Δ)`` is solvable in ``t`` rounds in model ``M`` iff
there is a chromatic simplicial map ``f : P^(t) → O`` with
``f(P^(t)(σ)) ⊆ Δ(σ)`` for **every** simplex ``σ ∈ I`` (Section 2.2).  On a
finite instance this is a finite constraint-satisfaction problem over the
protocol vertices:

* the variables are the vertices of ``P^(t)`` (one per (process, view));
* the domain of a vertex is the set of same-colored output vertices allowed
  by every ``Δ(σ)`` whose protocol complex contains it;
* for every input simplex ``σ`` and every facet ``ρ`` of ``P^(t)(σ)``, the
  image ``f(ρ)`` must be a simplex of ``Δ(σ)``.

Because complexes are face-closed, a *partial* image of a facet must already
be a simplex of the allowed complex — which gives the backtracking search a
cheap, exact forward check.  The engine is model-agnostic: register-only and
augmented models both work, and the closure machinery reuses it for the
one-round local tasks of Definition 2 (whose ``Δ`` is not monotone, which is
why constraints range over all input simplices, not only facets).

:func:`build_solvability_problem` compiles an instance once to integers
(vertex ranks, output bits, domain masks, allowed-mask sets), reading
each ``P^(t)(σ)`` off the protocol operator's template for ``σ``'s
shape key rather than building its views.  The protocol vertices are
ranked by their keys' sort keys and decoded only when a caller reads
them; propagation, component splitting and search read only their
count, so a refutation builds no protocol view, and the decision map
is decoded back to vertices at the end.

:func:`find_decision_map` compiles with ``reduce=True``, which adds a
series-reduction pass between gathering the per-σ pieces and ranking
the keys; both compiles share the gather and emit code.  A template
vertex whose key occurs in one piece alone, with only binary scopes
there, lies in no other ``P^(t)(σ)``: leaves are folded into their
neighbour's domain, and each path of degree-2 such vertices becomes
one binary scope between its kept ends, its relation composed along
``Δ(σ)``'s edges.  Over two processes,
``P^(t)`` of an input edge is such a path, so each input edge becomes
one relation between its two solo vertices: "a walk of ``3^t`` edges
joins ``f(a)`` and ``f(b)``", the paper's path argument for Claim 2.
Vertices of degree three or more, and every vertex of an ``n ≥ 3``
facet, stay variables.  The reduced problem is an ordinary
:class:`SolvabilityProblem` and goes through the same search.  Its
decision map is built when first read: each eliminated chain is walked
from its ends' images, so a verdict alone decodes no vertex.

:func:`find_decision_map` first tries to refute on a *core*: the faces
of one maximal input simplex that lie in the given input simplices.
A subset of the constraints that admits no map refutes the whole
instance, and the paper's lower bounds are all refutations.  The core
is compiled and propagated; a wipeout answers "unsolvable" without
compiling the rest of ``I``, and otherwise the whole instance is
compiled and solved as if the core stage had not run.  The maximal
simplex is chosen without knowing the task, by
:func:`~repro.topology.connectivity.farthest_facet`: a simplex scores
the largest distance between two of its vertices' solo output sets
``Δ({v})`` in the 1-skeleton of ``O``'s top-dimensional facets (the
2-process criterion of the algorithmic ACT).  Unreachable is infinite
and ranks first: the mixed-input facets of consensus.  Two processes
of liberal ε-AA may disagree freely, so ``O``'s whole 1-skeleton would
tie every facet at distance 1; its top-dimensional facets keep the ε
constraint.
:func:`repro.core.certify.check_decision_map` can re-check a returned
map on the original complexes; the tests and
:func:`~repro.core.speedup.verify_speedup_theorem` call it, this module
does not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.errors import SolvabilityError
from repro.models.base import ComputationModel
from repro.models.protocol import (
    ProtocolOperator,
    ProtocolTemplate,
    VertexKey,
    decode_vertex,
    key_sort_key,
)
from repro.tasks.task import Task
from repro.telemetry import span
from repro.topology.complex import SimplicialComplex
from repro.topology.connectivity import farthest_facet
from repro.topology.simplex import Simplex
from repro.topology.table import (
    iter_bits,
    iter_submasks,
    mask_components,
    popcount,
)
from repro.topology.vertex import Vertex

__all__ = [
    "DecisionMap",
    "SolvabilityProblem",
    "build_solvability_problem",
    "find_decision_map",
    "is_solvable",
]


@dataclass(frozen=True)
class DecisionMap:
    """A solution to a solvability problem: the algorithm's output map ``f``.

    Attributes
    ----------
    assignment:
        The vertex map: protocol vertex ``(i, V_i)`` ↦ output vertex
        ``(i, y_i)``.  A map found by :func:`find_decision_map` builds
        it on first read.
    rounds:
        The number of communication rounds the map decides after.
    """

    assignment: Mapping[Vertex, Vertex]
    rounds: int

    def __call__(self, vertex: Vertex) -> Vertex:
        return self.assignment[vertex]

    def output_simplex(self, protocol_simplex: Simplex) -> Simplex:
        """The decided configuration for one execution."""
        return Simplex(
            self.assignment[v] for v in protocol_simplex.vertices
        )


#: The constraints one vertex takes part in, for the search's consistency
#: test: ``(indices of the facet's other vertices, allowed masks)``.
_Watched = list[tuple[tuple[int, ...], frozenset[int]]]

#: A decoded constraint: ``(protocol facet, allowed simplices)``.
_Constraint = tuple[Simplex, frozenset[Simplex]]

#: Propagation's tables: the arcs ``(u, v, pair table)``, and per vertex
#: ``v`` the arcs ``(u, v)`` to revisit when ``v``'s domain shrinks.
_Arcs = tuple[list[tuple[int, int, dict[int, int]]], list[list[int]]]


@dataclass
class _Index:
    """Tables that depend on the scopes and allowed sets alone.

    Built on first use.  Copies made by
    :meth:`SolvabilityProblem.propagated` and
    :meth:`SolvabilityProblem.pinned` differ only in their domains, so
    they share one index.
    """

    arcs: Optional[_Arcs] = None
    watch: Optional[list[_Watched]] = None


@dataclass
class SolvabilityProblem:
    """A compiled solvability instance, over integers.

    Protocol vertices are numbered by their rank in sort order, and
    every output vertex of some ``Δ(σ)`` owns one bit, also in sort
    order.  A domain is then an ``int`` mask of output bits, and
    scanning it from the low bit visits the candidates in sort order.
    A partial image is consistent with a constraint iff the OR of its
    bits is one of the constraint's allowed masks (complexes are
    face-closed, so the test is exact for partial images too).

    Attributes
    ----------
    vertices:
        The protocol vertex of each index, in sort order.  A compiled
        problem decodes them on first read; propagation, components and
        search read only their count.
    outputs:
        The output vertex of each bit, in sort order.
    domains:
        The candidate mask of each protocol vertex: the same-colored
        output vertices allowed by every ``Δ(σ)`` whose protocol complex
        contains it.
    scopes:
        One protocol facet per constraint, as its vertex indices in
        color order.
    allowed:
        Per constraint, the masks of every simplex of its ``Δ(σ)``;
        constraints with equal ``Δ(σ)`` share one set.
    rounds:
        Recorded for reporting only.
    """

    vertices: Sequence[Vertex]
    outputs: tuple[Vertex, ...]
    domains: tuple[int, ...]
    scopes: tuple[tuple[int, ...], ...]
    allowed: tuple[frozenset[int], ...]
    rounds: int = 0
    #: Number of search nodes explored by the most recent :meth:`solve`.
    #: Derived state, not a constructor parameter: keeping it out of
    #: ``__init__`` guarantees positional construction binds exactly
    #: the compiled tables and ``rounds``, and nothing more.
    last_search_nodes: int = field(default=0, init=False, compare=False)
    #: The vertices whose domains shrank since the domains were last
    #: arc-consistent, or ``None`` if they never were: propagation then
    #: starts from the arcs into these vertices rather than from all.
    _narrowed: Optional[tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Arc tables and watch lists, built on first use.
    _index: _Index = field(
        default_factory=_Index, init=False, repr=False, compare=False
    )
    #: The vertices a ``reduce=True`` compile eliminated, which a
    #: found map extends to; ``None`` for a problem without them.
    _expansion: Optional["_Expansion"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def constraints(self) -> Sequence[_Constraint]:
        """``(protocol facet, allowed simplices)`` pairs, decoded on access.

        The image of the facet (and of each of its faces, incrementally)
        must belong to the set.
        """
        return _DecodedConstraints(self)

    def rank_of(self, key: VertexKey) -> int:
        """The index of the protocol vertex ``key`` names.

        A compiled problem looks the key up without decoding a vertex.
        """
        vertices = self.vertices
        if isinstance(vertices, _ProtocolVertices):
            return vertices.rank_of[key]
        return vertices.index(decode_vertex(key, self.rounds))

    def solve(
        self,
        use_propagation: bool = True,
        use_components: bool = True,
        node_limit: Optional[int] = None,
    ) -> Optional[DecisionMap]:
        """Search for a satisfying assignment; ``None`` if none exists.

        The search runs in three stages: pairwise arc-consistency
        propagation (prunes values with no compatible partner inside some
        constraint facet — complete for binary constraints), decomposition
        of the constraint graph into connected components (independent
        sub-searches cannot poison each other), and per-component
        backtracking with incremental face checks for the higher-arity
        constraints.

        The two flags disable the first two stages; they exist for the
        ablation benchmarks — leave them on in real use (without them,
        refutations can degenerate to exponential thrashing).  An optional
        ``node_limit`` bounds the number of explored search nodes; when it
        is exceeded a :class:`SolvabilityError` is raised (used by the same
        benchmarks to quantify the thrashing without waiting it out).
        """
        with span(
            "solvability/solve",
            vertices=len(self.vertices),
            constraints=len(self.scopes),
            rounds=self.rounds,
        ) as solve_span:
            result = self._solve(use_propagation, use_components, node_limit)
            solve_span.set_attribute("nodes", self.last_search_nodes)
            solve_span.set_attribute("solvable", result is not None)
            return result

    def prepare_search(
        self,
        use_propagation: bool = True,
        use_components: bool = True,
    ) -> Optional[tuple[list[int], list[int], list[list[int]]]]:
        """Run every pre-search stage; ``None`` refutes the instance.

        The empty-domain check, pairwise arc-consistency propagation,
        up-front assignment of forced (singleton-domain) vertices, the
        pinned-pair constraint precheck, and the connected-component
        decomposition.  Returns ``(domains, assignment, components)``
        ready for per-component backtracking: ``domains`` and
        ``assignment`` are indexed by protocol vertex (an assigned image
        is its single output bit, ``0`` means unassigned), and each
        component lists its vertex indices in ascending order.  Each
        component is independent of the others given the forced
        assignment.
        """
        self.last_search_nodes = 0
        domains = list(self.domains)
        if not all(domains):
            return None
        if use_propagation and not self._propagate_pairwise(domains):
            return None

        # Forced vertices (singleton domains — e.g. every solo view, whose
        # carrier intersection pins the output) are assigned up front.
        # Beyond saving search depth, this is what lets the component
        # decomposition genuinely split the problem: forced vertices are
        # shared between otherwise-independent input windows and would
        # bridge their components.
        assignment = [
            0 if domain & (domain - 1) else domain for domain in domains
        ]
        for scope, allowed in zip(self.scopes, self.allowed):
            image = 0
            for index in scope:
                image |= assignment[index]
            # Distinct colors have distinct output bits, so two or more
            # set bits means two or more pinned vertices.
            if image & (image - 1) and image not in allowed:
                return None

        if use_components:
            components = self._components(assignment)
        else:
            free = [
                index for index, image in enumerate(assignment) if not image
            ]
            components = [free] if free else []
        return domains, assignment, components

    def propagated(self) -> Optional["SolvabilityProblem"]:
        """This problem with arc-consistent domains; ``None`` refutes it.

        Propagate once, then decide many narrowings of it with
        :meth:`pinned`: each re-propagates only from what it pinned.
        """
        domains = list(self.domains)
        if not all(domains) or not self._propagate_pairwise(domains):
            return None
        return self._derived(domains, ())

    def pinned(
        self, pins: Mapping[int, int]
    ) -> Optional["SolvabilityProblem"]:
        """This problem with each pinned vertex's domain ANDed with a mask.

        ``pins`` maps vertex indices to output masks.  ``None`` if a
        pinned domain empties, which refutes the narrowed problem.  The
        copy shares this problem's compiled and derived tables.  If these
        domains are arc-consistent, the copy's propagation revisits only
        the arcs into the narrowed vertices.  Arc consistency has one
        fixpoint below any start, so the copy propagates to the same
        domains as a fresh compile of the narrowed problem would.
        """
        domains = list(self.domains)
        narrowed = set(self._narrowed or ())
        for vertex, mask in pins.items():
            kept = domains[vertex] & mask
            if not kept:
                return None
            if kept != domains[vertex]:
                domains[vertex] = kept
                narrowed.add(vertex)
        return self._derived(
            domains, None if self._narrowed is None else tuple(narrowed)
        )

    def _derived(
        self, domains: list[int], narrowed: Optional[tuple[int, ...]]
    ) -> "SolvabilityProblem":
        copy = replace(self, domains=tuple(domains))
        copy._narrowed = narrowed
        copy._index = self._index
        copy._expansion = self._expansion
        return copy

    def _solve(
        self,
        use_propagation: bool,
        use_components: bool,
        node_limit: Optional[int],
    ) -> Optional[DecisionMap]:
        prepared = self.prepare_search(use_propagation, use_components)
        if prepared is None:
            return None
        domains, assignment, components = prepared
        for component in components:
            if not self._search_component(
                component, domains, assignment, node_limit
            ):
                return None
        outputs = self.outputs
        expansion = self._expansion
        if expansion is not None:
            return DecisionMap(
                _LazyAssignment(
                    expansion, self.vertices, assignment, outputs, self.rounds
                ),
                self.rounds,
            )
        return DecisionMap(
            {
                vertex: outputs[image.bit_length() - 1]
                for vertex, image in zip(self.vertices, assignment)
            },
            self.rounds,
        )

    def _propagate_pairwise(self, domains: list[int]) -> bool:
        """AC-3 over the pairs of every constraint facet, on domain masks.

        A candidate for ``u`` survives only if, for every facet containing
        both ``u`` and some ``v``, a candidate of ``v`` forms an allowed
        edge with it (complexes are face-closed, so the pair must itself
        be an allowed simplex).  Each allowed family gets one pair table,
        ``bit → OR of the bits it forms an allowed edge with``; ``v``'s
        domain holds only bits of ``v``'s color, so one AND against it
        decides an arc test.  Only the arcs into :attr:`_narrowed`
        start in the queue when it is set.
        """
        arcs, watchers = self._arcs()
        if self._narrowed is None:
            queue = deque(range(len(arcs)))
            queued = [True] * len(arcs)
        else:
            queue = deque()
            queued = [False] * len(arcs)
            for vertex in self._narrowed:
                for arc in watchers[vertex]:
                    if not queued[arc]:
                        queued[arc] = True
                        queue.append(arc)
        while queue:
            arc = queue.popleft()
            queued[arc] = False
            u, v, partners = arcs[arc]
            support = domains[v]
            domain = kept = domains[u]
            while domain:
                bit = domain & -domain
                domain ^= bit
                if not partners.get(bit, 0) & support:
                    kept ^= bit
            if kept != domains[u]:
                if not kept:
                    return False
                domains[u] = kept
                for watcher in watchers[u]:
                    if not queued[watcher]:
                        queued[watcher] = True
                        queue.append(watcher)
        return True

    def _arcs(self) -> _Arcs:
        found = self._index.arcs
        if found is None:
            tables: dict[int, dict[int, int]] = {}
            arcs: list[tuple[int, int, dict[int, int]]] = []
            arc_keys: set[tuple[int, int, int]] = set()
            watchers: list[list[int]] = [
                [] for _ in range(len(self.vertices))
            ]
            for scope, allowed in zip(self.scopes, self.allowed):
                if len(scope) < 2:
                    continue
                partners = tables.get(id(allowed))
                if partners is None:
                    partners = tables[id(allowed)] = _pair_table(allowed)
                for u in scope:
                    for v in scope:
                        key = (u, v, id(partners))
                        if u != v and key not in arc_keys:
                            arc_keys.add(key)
                            watchers[v].append(len(arcs))
                            arcs.append((u, v, partners))
            found = self._index.arcs = (arcs, watchers)
        return found

    def _components(self, assignment: list[int]) -> list[list[int]]:
        """Connected components of the constraint graph over free vertices.

        Forced vertices are excluded: their values are already fixed, so
        they transmit no uncertainty between the subproblems they touch.
        A free vertex in no scope is a component of its own.  Indices
        are ranks, so :func:`mask_components`'s lowest-bit-first order
        puts the component holding the smallest free vertex first.
        """
        free_parts = []
        covered = 0
        for scope in self.scopes:
            mask = 0
            for index in scope:
                if not assignment[index]:
                    mask |= 1 << index
            if mask:
                free_parts.append(mask)
                covered |= mask
        free = [index for index, image in enumerate(assignment) if not image]
        if popcount(covered) < len(free):
            free_parts.extend(
                [1 << index for index in free if not covered >> index & 1]
            )
        return [
            list(iter_bits(component))
            for component in mask_components(free_parts, len(assignment))
        ]

    def _watchers(self) -> list[_Watched]:
        watch = self._index.watch
        if watch is None:
            watch = [[] for _ in range(len(self.vertices))]
            for scope, allowed in zip(self.scopes, self.allowed):
                if len(scope) < 2:
                    continue
                for index in scope:
                    others = tuple(other for other in scope if other != index)
                    watch[index].append((others, allowed))
            self._index.watch = watch
        return watch

    def _search_component(
        self,
        component: list[int],
        domains: list[int],
        assignment: list[int],
        node_limit: Optional[int] = None,
    ) -> bool:
        order = sorted(
            component, key=lambda index: (popcount(domains[index]), index)
        )
        watch = self._watchers()
        nodes = self.last_search_nodes

        # Depth-first backtracking over ``order`` with an explicit stack:
        # ``untried[depth]`` holds the candidate bits of ``order[depth]``
        # not tried yet, and ``order[:depth]`` is assigned.  Deep
        # components (one level per free vertex) would otherwise exhaust
        # the interpreter's recursion limit.
        size = len(order)
        untried = [0] * size
        if size:
            untried[0] = domains[order[0]]
        depth = 0
        while depth < size:
            vertex = order[depth]
            options = untried[depth]
            placed = 0
            while options:
                image = options & -options
                options ^= image
                nodes += 1
                if node_limit is not None and nodes > node_limit:
                    # Unwind the component's partial images so a caught
                    # error leaves the problem (and the shared assignment)
                    # reusable for a later solve.
                    self.last_search_nodes = nodes
                    for index in order:
                        assignment[index] = 0
                    raise SolvabilityError(
                        f"search exceeded the node budget of {node_limit}"
                    )
                # One OR sweep plus one set-of-int lookup per touched
                # constraint, for any arity.
                for others, allowed in watch[vertex]:
                    partial = image
                    for other in others:
                        partial |= assignment[other]
                    if partial != image and partial not in allowed:
                        break
                else:
                    placed = image
                    break
            assignment[vertex] = placed
            if placed:
                untried[depth] = options
                depth += 1
                if depth < size:
                    untried[depth] = domains[order[depth]]
                continue
            if depth == 0:
                self.last_search_nodes = nodes
                return False
            depth -= 1
        self.last_search_nodes = nodes
        return True


class _ProtocolVertices(Sequence[Vertex]):
    """A compiled problem's protocol vertices, decoded on first read.

    Holds the ranked keys; ``len`` and :attr:`rank_of` need no vertex.
    The first item access or iteration decodes every key once, and the
    copies made by :meth:`SolvabilityProblem.propagated` and
    :meth:`SolvabilityProblem.pinned` share this object, hence that
    decode.  Compares equal to the tuple of the decoded vertices.
    """

    __slots__ = ("rank_of", "_rounds", "_decoded")

    def __init__(self, rank_of: dict[VertexKey, int], rounds: int) -> None:
        #: ``key → rank``, iterating in rank order.
        self.rank_of = rank_of
        self._rounds = rounds
        self._decoded: Optional[tuple[Vertex, ...]] = None

    def _vertices(self) -> tuple[Vertex, ...]:
        decoded = self._decoded
        if decoded is None:
            memo: dict = {}
            decoded = self._decoded = tuple(
                [
                    decode_vertex(key, self._rounds, memo)
                    for key in self.rank_of
                ]
            )
        return decoded

    def __len__(self) -> int:
        return len(self.rank_of)

    def __getitem__(  # type: ignore[override]
        self, position: Union[int, slice]
    ) -> Union[Vertex, tuple[Vertex, ...]]:
        return self._vertices()[position]

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ProtocolVertices):
            other = other._vertices()
        if not isinstance(other, tuple):
            return NotImplemented
        return self._vertices() == other

    def __hash__(self) -> int:
        return hash(self._vertices())

    def __repr__(self) -> str:
        return repr(self._vertices())


@dataclass
class _Expansion:
    """How a reduced problem's map extends to its eliminated vertices.

    ``chains`` are ``(s, interior, e, masks, step)`` over keys: the
    interior keys of one eliminated walk from kept ``s`` to kept ``e``,
    their domains, and the family's :class:`_Step`.  ``leaves`` are
    ``(v, u, mask, step)`` in folding order.
    """

    chains: list[
        tuple[VertexKey, tuple[VertexKey, ...], VertexKey, tuple[int, ...],
              "_Step"]
    ]
    leaves: list[tuple[VertexKey, VertexKey, int, "_Step"]]

    def images(self, image_of: dict[VertexKey, int]) -> None:
        """Add an image bit for every eliminated key to ``image_of``.

        Each chain is walked from its ends' images, each interior
        vertex taking the lowest bit from which the walk still reaches
        ``e``; then the leaves, last folded first, each take the lowest
        bit compatible with its neighbour's image.
        """
        for start, interior, end, masks, step in self.chains:
            ahead = [0] * len(interior)
            reach = image_of[end]
            for position in range(len(interior) - 1, -1, -1):
                reach = ahead[position] = step(reach) & masks[position]
            previous = image_of[start]
            for key, allowed in zip(interior, ahead):
                choices = step(previous) & allowed
                previous = image_of[key] = choices & -choices
        for leaf, neighbour, mask, step in reversed(self.leaves):
            choices = step(image_of[neighbour]) & mask
            image_of[leaf] = choices & -choices


class _LazyAssignment(Mapping[Vertex, Vertex]):
    """A reduced problem's decision map, built when it is first read.

    The first read decodes every key once, the kept vertices in rank
    order, then the eliminated ones; :meth:`by_key` gives the same map
    on keys and decodes nothing.
    """

    __slots__ = ("_parts", "_built")

    def __init__(
        self,
        expansion: _Expansion,
        vertices: Sequence[Vertex],
        images: list[int],
        outputs: tuple[Vertex, ...],
        rounds: int,
    ) -> None:
        self._parts = (expansion, vertices, images, outputs, rounds)
        self._built: Optional[dict[Vertex, Vertex]] = None

    def by_key(self) -> dict[VertexKey, Vertex]:
        """``key → output vertex`` for every protocol vertex.

        Extends the search's images to the eliminated keys
        (:meth:`_Expansion.images`) without decoding a vertex.
        """
        expansion, vertices, images, outputs, _ = self._parts
        assert isinstance(vertices, _ProtocolVertices)
        image_of = dict(zip(vertices.rank_of, images))
        expansion.images(image_of)
        return {
            key: outputs[bit.bit_length() - 1]
            for key, bit in image_of.items()
        }

    def _map(self) -> dict[Vertex, Vertex]:
        built = self._built
        if built is None:
            rounds = self._parts[-1]
            memo: dict = {}
            built = self._built = {
                decode_vertex(key, rounds, memo): output
                for key, output in self.by_key().items()
            }
        return built

    def __getitem__(self, vertex: Vertex) -> Vertex:
        return self._map()[vertex]

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._map()

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._map())

    def __len__(self) -> int:
        return len(self._map())

    def __repr__(self) -> str:
        return repr(self._map())


class _DecodedConstraints(Sequence[_Constraint]):
    """The constraints of a problem as objects, decoded item by item.

    ``len`` needs no decoding, and each allowed family is decoded once.
    """

    def __init__(self, problem: SolvabilityProblem) -> None:
        self._problem = problem
        self._families: dict[int, frozenset[Simplex]] = {}

    def __len__(self) -> int:
        return len(self._problem.scopes)

    def __getitem__(  # type: ignore[override]
        self, position: Union[int, slice]
    ) -> Union[_Constraint, tuple[_Constraint, ...]]:
        if isinstance(position, slice):
            return tuple(
                [self._pair(k) for k in range(len(self))[position]]
            )
        return self._pair(position)

    def _pair(self, position: int) -> _Constraint:
        problem = self._problem
        scope = problem.scopes[position]
        allowed = problem.allowed[position]
        faces = self._families.get(id(allowed))
        if faces is None:
            outputs = problem.outputs
            faces = self._families[id(allowed)] = frozenset(
                Simplex(outputs[bit] for bit in iter_bits(mask))
                for mask in allowed
            )
        return Simplex(problem.vertices[index] for index in scope), faces


def _pair_table(allowed: frozenset[int]) -> dict[int, int]:
    """``bit → OR of the bits it forms an allowed edge with``."""
    partners: dict[int, int] = {}
    for mask in allowed:
        low = mask & -mask
        high = mask ^ low
        if high and not high & (high - 1):
            partners[low] = partners.get(low, 0) | high
            partners[high] = partners.get(high, 0) | low
    return partners


def _rank_keys(keys: Iterable[VertexKey], rounds: int) -> dict[VertexKey, int]:
    """``key → rank`` in the sort order of the vertices the keys name.

    Ranked on :func:`~repro.models.protocol.key_sort_key`, so no vertex
    is decoded; the dict iterates in rank order.
    """
    memo: dict = {}
    ranked = sorted(keys, key=lambda key: key_sort_key(key, rounds, memo))
    return {key: rank for rank, key in enumerate(ranked)}


@dataclass
class _Gathered:
    """An instance's per-σ pieces, and each distinct ``Δ(σ)`` once.

    A piece is ``(family, template, keys)``: the index of ``σ``'s
    ``Δ(σ)``, ``σ``'s template, and its vertices' keys in template
    order.  Per family, ``faces`` holds the masks of its simplices and
    ``colors`` its vertices' bits by color.
    """

    pieces: list[tuple[int, ProtocolTemplate, list[VertexKey]]]
    outputs: tuple[Vertex, ...]
    faces: list[frozenset[int]]
    colors: list[dict[int, int]]


def _gather(
    input_simplices: Iterable[Simplex],
    delta_of: Callable[[Simplex], SimplicialComplex],
    operator: ProtocolOperator,
    rounds: int,
) -> _Gathered:
    # The σ go in sort order, and below each σ its scopes in rank order
    # (see _emit): the constraint order is then the same under every
    # hash seed, whatever order a complex iterates its simplices in.
    families: dict[SimplicialComplex, int] = {}
    pieces: list[tuple[int, ProtocolTemplate, list[VertexKey]]] = []
    output_vertices: set[Vertex] = set()
    for sigma in sorted(input_simplices, key=Simplex._sort_key):
        allowed = delta_of(sigma)
        family = families.get(allowed)
        if family is None:
            family = families[allowed] = len(families)
            output_vertices.update(allowed.vertices)
        template = operator.template(sigma, rounds)
        pieces.append((family, template, template.keys(sigma)))

    outputs = sorted(output_vertices, key=Vertex._sort_key)
    bit_of = {vertex: 1 << bit for bit, vertex in enumerate(outputs)}

    # Each Δ(σ) once: its simplices as masks, its vertices by color.
    family_faces: list[frozenset[int]] = []
    family_colors: list[dict[int, int]] = []
    for allowed in families:
        faces: set[int] = set()
        for facet in allowed.facets:
            mask = 0
            for vertex in facet.vertices:
                mask |= bit_of[vertex]
            faces.update(iter_submasks(mask))
        by_color: dict[int, int] = {}
        for vertex in allowed.vertices:
            by_color[vertex.color] = (
                by_color.get(vertex.color, 0) | bit_of[vertex]
            )
        family_faces.append(frozenset(faces))
        family_colors.append(by_color)
    return _Gathered(pieces, tuple(outputs), family_faces, family_colors)


class _Step:
    """One step along ``Δ(σ)``'s edges: ``mask → OR of its bits' partners``.

    Memoized per mask: the walks of one family revisit the same
    frontiers.
    """

    __slots__ = ("_partners", "_memo")

    def __init__(self, faces: frozenset[int]) -> None:
        self._partners = _pair_table(faces)
        self._memo: dict[int, int] = {}

    def __call__(self, mask: int) -> int:
        found = self._memo.get(mask)
        if found is None:
            partners = self._partners
            found = 0
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                found |= partners.get(bit, 0)
            self._memo[mask] = found
        return found


#: An eliminated chain ``(s, interior, e, masks)``: the walk from kept
#: vertex ``s`` through ``interior`` (with domains ``masks``) to ``e``.
_Chain = tuple[int, tuple[int, ...], int, tuple[int, ...]]


@dataclass(frozen=True)
class _Reduced:
    """What the series reduction keeps of one piece, in template indices.

    ``kept`` are the template vertices that stay variables.
    ``narrowed`` ANDs masks into kept domains: the leaves folded into
    them, and the local domain of a vertex that had to stay.  ``facets``
    are the template facets over kept vertices alone.  Each chain
    becomes one binary scope between its ends.  ``leaves`` are
    ``(v, u, mask)`` in folding order: ``v`` was folded into its one
    neighbour ``u`` with the domain ``mask``.
    """

    kept: tuple[int, ...]
    narrowed: tuple[tuple[int, int], ...]
    facets: tuple[tuple[int, ...], ...]
    chains: tuple[_Chain, ...]
    leaves: tuple[tuple[int, int, int], ...]


def _binary_only(template: ProtocolTemplate) -> tuple[int, ...]:
    """The template vertices all of whose facets are edges."""
    other = set()
    for facet in template.facets:
        if len(facet) != 2:
            other.update(facet)
    return tuple(k for k in range(len(template.shapes)) if k not in other)


def _reduce_piece(
    template: ProtocolTemplate,
    candidates: tuple[int, ...],
    by_color: dict[int, int],
    step: _Step,
) -> _Reduced:
    """Eliminate ``candidates`` from one piece: fold leaves, then chains.

    A candidate of degree one is folded into its neighbour's domain,
    until none is left.  Then each path of degree-2 candidates between
    two kept vertices is one chain; a candidate of any other degree
    stays a variable, and so does the lowest vertex of a cycle of
    candidates.  Ends of one color (and a cycle's one end) would make a
    scope whose pair masks collide, so such a chain keeps its last
    interior vertex.
    """
    shapes = template.shapes
    local = {k: by_color.get(shapes[k].color, 0) for k in candidates}
    neighbours: dict[int, set[int]] = {}
    for facet in template.facets:
        if len(facet) == 2 and (facet[0] in local or facet[1] in local):
            u, v = facet
            neighbours.setdefault(u, set()).add(v)
            neighbours.setdefault(v, set()).add(u)

    narrowed: dict[int, int] = {}
    leaves: list[tuple[int, int, int]] = []
    pending = [k for k in reversed(candidates) if len(neighbours[k]) == 1]
    while pending:
        v = pending.pop()
        if v not in local or len(neighbours[v]) != 1:
            continue
        (u,) = neighbours.pop(v)
        neighbours[u].discard(v)
        mask = local.pop(v)
        leaves.append((v, u, mask))
        reach = step(mask)
        if u in local:
            local[u] &= reach
            if len(neighbours[u]) == 1:
                pending.append(u)
        else:
            narrowed[u] = narrowed.get(u, -1) & reach

    def stay(k: int) -> None:
        narrowed[k] = local.pop(k)

    for k in sorted(local):
        if len(neighbours[k]) != 2:
            stay(k)
    interior = dict(local)
    chains: list[_Chain] = []

    def walk(start: int, first: int) -> None:
        previous, current = start, first
        path = []
        while current in local:
            path.append(current)
            low, high = sorted(neighbours[current])
            previous, current = current, high if low == previous else low
        if shapes[current].color == shapes[start].color:
            last = path.pop()
            stay(last)
            current = last
        for k in path:
            del local[k]
        if path:
            masks = tuple([interior[k] for k in path])
            chains.append((start, tuple(path), current, masks))

    ends = sorted(k for k in neighbours if k not in local)
    for start in ends:
        for first in sorted(neighbours[start]):
            if first in local:
                walk(start, first)
    # What is left are cycles of candidates.
    while local:
        start = min(local)
        stay(start)
        walk(start, min(neighbours[start]))

    eliminated = {v for v, _, _ in leaves}
    for _, path, _, _ in chains:
        eliminated.update(path)
    return _Reduced(
        tuple(k for k in range(len(shapes)) if k not in eliminated),
        tuple(sorted(narrowed.items())),
        tuple(
            facet
            for facet in template.facets
            if not any(k in eliminated for k in facet)
        ),
        tuple(chains),
        tuple(leaves),
    )


def _compose(
    start: int, masks: tuple[int, ...], end: int, step: _Step
) -> frozenset[int]:
    """The faces of the walks ``start → masks → end`` along ``step``.

    A pair ``x | y`` is allowed iff a walk leaves bit ``x`` of
    ``start``, takes one bit of each mask in turn, and reaches bit ``y``
    of ``end``; its two bits are allowed alone.
    """
    faces: set[int] = set()
    rest = start
    while rest:
        x = rest & -rest
        rest ^= x
        reach = x
        for mask in masks:
            reach = step(reach) & mask
        reach = step(reach) & end
        while reach:
            y = reach & -reach
            reach ^= y
            faces.update((x, y, x | y))
    return frozenset(faces)


def _emit(
    gathered: _Gathered,
    rank_of: dict[VertexKey, int],
    reduced: Sequence[_Reduced],
    steps: Mapping[int, _Step],
    rounds: int,
) -> SolvabilityProblem:
    """The problem over the ranked keys: all domains, then the scopes.

    An eliminated key has no rank.  A chain's scope is composed from
    its ends' domains, so the domains come first.
    """
    pieces = gathered.pieces
    colors = gathered.colors
    domains = [-1] * len(rank_of)
    piece_ranks: list[list[int]] = []
    for (family, _, keys), piece in zip(pieces, reduced):
        by_color = colors[family]
        ranks = [rank_of.get(key, -1) for key in keys]
        for k in piece.kept:
            domains[ranks[k]] &= by_color.get(keys[k][0].color, 0)
        for k, mask in piece.narrowed:
            domains[ranks[k]] &= mask
        piece_ranks.append(ranks)

    scopes: list[tuple[int, ...]] = []
    allowed_sets: list[frozenset[int]] = []
    seen: set[tuple[tuple[int, ...], int]] = set()
    composed: dict[tuple, frozenset[int]] = {}
    for (family, _, keys), piece, ranks in zip(pieces, reduced, piece_ranks):
        faces = gathered.faces[family]
        found = [
            (scope, faces)
            for scope in sorted(
                tuple([ranks[k] for k in facet]) for facet in piece.facets
            )
        ]
        if piece.chains:
            for start, _, end, masks in piece.chains:
                ends = (ranks[start], ranks[end])
                first, last = domains[ends[0]], domains[ends[1]]
                memo_key = (family, masks, first, last)
                allowed = composed.get(memo_key)
                if allowed is None:
                    allowed = composed[memo_key] = _compose(
                        first, masks, last, steps[family]
                    )
                if keys[start][0].color > keys[end][0].color:
                    ends = ends[::-1]
                found.append((ends, allowed))
            found.sort(key=lambda pair: pair[0])
        for scope, allowed in found:
            if (scope, id(allowed)) not in seen:
                seen.add((scope, id(allowed)))
                scopes.append(scope)
                allowed_sets.append(allowed)
    return SolvabilityProblem(
        _ProtocolVertices(rank_of, rounds),
        gathered.outputs,
        tuple(domains),
        tuple(scopes),
        tuple(allowed_sets),
        rounds,
    )


def _whole(template: ProtocolTemplate) -> _Reduced:
    """The identity reduction: every vertex kept, nothing eliminated."""
    kept = tuple(range(len(template.shapes)))
    return _Reduced(kept, (), template.facets, (), ())


def _series_reduce(
    gathered: _Gathered,
) -> tuple[list[_Reduced], dict[int, _Step], set[VertexKey]]:
    """Each piece's reduction, the families' steps, and the kept keys.

    A template vertex is a candidate iff its key occurs in this piece
    alone and all its scopes are binary.  Reductions are memoized per
    template, family and candidates.  Opens one ``solvability/reduce``
    span with attributes ``eliminated`` and ``kept``.
    """
    pieces = gathered.pieces
    with span("solvability/reduce") as reduce_span:
        occurrences: dict[VertexKey, int] = {}
        for _, _, keys in pieces:
            for key in keys:
                occurrences[key] = occurrences.get(key, 0) + 1
        binary: dict[int, tuple[int, ...]] = {}
        memo: dict[tuple, _Reduced] = {}
        steps: dict[int, _Step] = {}
        reduced: list[_Reduced] = []
        kept_keys: set[VertexKey] = set()
        eliminated = 0
        for family, template, keys in pieces:
            only = binary.get(id(template))
            if only is None:
                only = binary[id(template)] = _binary_only(template)
            candidates = tuple(
                [k for k in only if occurrences[keys[k]] == 1]
            )
            memo_key = (id(template), family, candidates)
            piece = memo.get(memo_key)
            if piece is None:
                if candidates:
                    step = steps.get(family)
                    if step is None:
                        step = steps[family] = _Step(gathered.faces[family])
                    piece = _reduce_piece(
                        template, candidates, gathered.colors[family], step
                    )
                else:
                    piece = _whole(template)
                memo[memo_key] = piece
            reduced.append(piece)
            kept_keys.update([keys[k] for k in piece.kept])
            eliminated += len(keys) - len(piece.kept)
        reduce_span.set_attribute("eliminated", eliminated)
        reduce_span.set_attribute("kept", len(kept_keys))
    return reduced, steps, kept_keys


def build_solvability_problem(
    input_simplices: Iterable[Simplex],
    delta_of: Callable[[Simplex], SimplicialComplex],
    operator: ProtocolOperator,
    rounds: int,
    *,
    reduce: bool = False,
) -> SolvabilityProblem:
    """Compile constraints for a (generalized) solvability question.

    Parameters
    ----------
    input_simplices:
        Every input simplex whose executions constrain ``f`` (for tasks,
        all simplices of ``I``; for local tasks, all faces of ``τ``).
    delta_of:
        The specification ``σ ↦ Δ(σ)``.
    operator, rounds:
        ``P^(t)(σ)``, the executions where exactly ``ID(σ)`` participate,
        is ``operator``'s ``rounds``-round template of ``σ``, relabelled
        with ``σ``'s inputs: each vertex is named by a
        :data:`~repro.models.protocol.VertexKey`.  The distinct keys are
        ranked by :func:`~repro.models.protocol.key_sort_key`, and the
        problem's :attr:`~SolvabilityProblem.vertices` decodes them on
        first read.
    reduce:
        Series-reduce before ranking (what :func:`find_decision_map`
        compiles).  A template vertex is eliminated only if its key
        occurs in one ``P^(t)(σ)`` alone and all its scopes there are
        binary, so only those scopes constrain it.  Leaves are folded
        into their neighbour's domain and paths of degree-2 vertices
        become one binary scope between their kept ends (see
        :func:`_reduce_piece`).  Over two processes every interior
        vertex of an input edge's path goes, and the edge becomes one
        relation between its two solo vertices.  Eliminated vertices
        are never ranked or decoded and are not among the problem's
        :attr:`~SolvabilityProblem.vertices`; a map it finds walks each
        chain back from its ends' images when it is first read.
    """
    gathered = _gather(input_simplices, delta_of, operator, rounds)
    pieces = gathered.pieces
    if reduce:
        reduced, steps, kept_keys = _series_reduce(gathered)
    else:
        wholes: dict[int, _Reduced] = {}
        reduced, steps, kept_keys = [], {}, set()
        for _, template, keys in pieces:
            piece = wholes.get(id(template))
            if piece is None:
                piece = wholes[id(template)] = _whole(template)
            reduced.append(piece)
            kept_keys.update(keys)
    rank_of = _rank_keys(kept_keys, rounds)
    problem = _emit(gathered, rank_of, reduced, steps, rounds)

    chains = []
    leaves = []
    for (family, _, keys), piece in zip(pieces, reduced):
        for start, path, end, masks in piece.chains:
            chains.append(
                (
                    keys[start],
                    tuple([keys[k] for k in path]),
                    keys[end],
                    masks,
                    steps[family],
                )
            )
        for v, u, mask in piece.leaves:
            leaves.append((keys[v], keys[u], mask, steps[family]))
    if chains or leaves:
        problem._expansion = _Expansion(chains, leaves)
    return problem


def find_decision_map(
    task: Task,
    model: ComputationModel,
    rounds: int,
    input_simplices: Optional[Iterable[Simplex]] = None,
    operator: Optional[ProtocolOperator] = None,
) -> Optional[DecisionMap]:
    """Search for a ``rounds``-round decision map solving ``task`` in ``model``.

    The search runs in two stages on one protocol operator.  The core
    stage compiles only the faces of the hardest maximal input simplex
    that lie in the given input simplices, and runs
    :meth:`SolvabilityProblem.prepare_search` on it.  The hardest simplex
    is the one whose vertices' solo output sets ``Δ({v})`` lie farthest
    apart in the 1-skeleton of ``O``'s top-dimensional facets
    (unreachable first, ties to the smaller ``Simplex._sort_key``).  A
    wipeout there refutes the whole instance, since every constraint of
    the core is a constraint of the whole.  Otherwise the whole instance
    is compiled and solved, so a decision map is always decided on every
    given simplex.  The core stage is skipped when the given simplices
    have a single maximal simplex; it opens one ``solvability/core``
    span around the ranking and the core's compile, with attributes
    ``ranked`` (the maximal simplices scored), ``simplices`` and
    ``refuted``.

    Parameters
    ----------
    input_simplices:
        Restrict the constraints to these input simplices (default: every
        simplex of the task's input complex).  Restricting weakens the
        question, which is safe for *impossibility*: if the restricted
        instance is unsolvable, so is the full task.  Neither stage
        compiles a simplex outside the given ones.
    operator:
        Reuse a memoized :class:`ProtocolOperator` across calls.
    """
    if rounds < 0:
        raise SolvabilityError("rounds must be non-negative")
    op = operator or ProtocolOperator(model)
    if input_simplices is None:
        simplices: Collection[Simplex] = task.input_complex
        inputs = task.input_complex
    else:
        simplices = set(input_simplices)
        inputs = SimplicialComplex(simplices)
    ranked = inputs.facet_count
    if ranked > 1:
        with span("solvability/core", ranked=ranked) as core_span:
            hardest = farthest_facet(
                inputs,
                task.output_complex,
                lambda vertex: task.delta(Simplex((vertex,))).vertices,
            )
            # Every face of a facet of I is in I, so a refuted core
            # never lists the simplices of I.
            core = (
                list(hardest.faces())
                if input_simplices is None
                else [face for face in hardest.faces() if face in simplices]
            )
            core_span.set_attribute("simplices", len(core))
            refuted = (
                build_solvability_problem(
                    core, task.delta, op, rounds, reduce=True
                ).prepare_search()
                is None
            )
            core_span.set_attribute("refuted", refuted)
        if refuted:
            return None
    problem = build_solvability_problem(
        simplices, task.delta, op, rounds, reduce=True
    )
    return problem.solve()


def is_solvable(
    task: Task,
    model: ComputationModel,
    rounds: int,
    input_simplices: Optional[Iterable[Simplex]] = None,
    operator: Optional[ProtocolOperator] = None,
) -> bool:
    """``True`` iff a ``rounds``-round algorithm solves the task instance."""
    found = find_decision_map(task, model, rounds, input_simplices, operator)
    return found is not None
