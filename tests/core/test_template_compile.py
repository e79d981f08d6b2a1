"""The template compile against a per-σ reference compile.

:func:`build_solvability_problem` names the vertices of ``P^(t)(σ)``
through the operator's templates and decodes each distinct one once.
The reference below builds every ``P^(t)(σ)`` from views with
``operator.of_simplex`` and compiles it directly, as the solver did
before templates; both must give the same problem.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.solvability import build_solvability_problem
from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    ProtocolOperator,
    SnapshotModel,
    k_concurrency_model,
)
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
    multivalued_consensus_task,
)
from repro.topology import Vertex
from repro.topology.table import iter_submasks

F = Fraction


def reference_compile(simplices, delta_of, operator, rounds):
    """``(vertices, outputs, domains, constraints)`` from per-σ complexes."""
    pieces = []
    protocol_vertices = set()
    output_vertices = set()
    for sigma in simplices:
        allowed = delta_of(sigma)
        protocol = operator.of_simplex(sigma, rounds)
        output_vertices.update(allowed.vertices)
        protocol_vertices.update(protocol.vertices)
        pieces.append((allowed, protocol))
    vertices = sorted(protocol_vertices, key=Vertex._sort_key)
    outputs = sorted(output_vertices, key=Vertex._sort_key)
    rank = {vertex: index for index, vertex in enumerate(vertices)}
    bit = {vertex: 1 << index for index, vertex in enumerate(outputs)}
    domains = [-1] * len(vertices)
    constraints = set()
    for allowed, protocol in pieces:
        faces = set()
        for facet in allowed.facets:
            faces.update(iter_submasks(sum(bit[v] for v in facet.vertices)))
        for vertex in protocol.vertices:
            domains[rank[vertex]] &= sum(
                bit[image]
                for image in allowed.vertices
                if image.color == vertex.color
            )
        for facet in protocol.facets:
            scope = tuple(rank[vertex] for vertex in facet.vertices)
            constraints.add((scope, frozenset(faces)))
    return tuple(vertices), tuple(outputs), tuple(domains), constraints


def _value_reading_alpha(vertex):
    # Inputs in round one, (box output, view) pairs after it.
    if isinstance(vertex.value, tuple):
        return int(sum(vertex.value[1].values()) >= 1)
    return int(vertex.value >= F(1, 2))


#: (label, task factory, model factory, rounds)
CASES = [
    (
        "IIS n=2 t=2",
        lambda: approximate_agreement_task([1, 2], F(1, 3), 3),
        ImmediateSnapshotModel,
        2,
    ),
    (
        "IIS n=3 t=1",
        lambda: liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 2),
        ImmediateSnapshotModel,
        1,
    ),
    (
        "snapshot n=3 t=1",
        lambda: binary_consensus_task([1, 2, 3]),
        SnapshotModel,
        1,
    ),
    (
        "collect n=2 t=2",
        lambda: approximate_agreement_task([1, 2], F(1, 2), 2),
        CollectModel,
        2,
    ),
    (
        "1-concurrency n=3 t=1",
        lambda: liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 2),
        lambda: k_concurrency_model(ImmediateSnapshotModel(), 1),
        1,
    ),
    (
        "IIS+t&s n=3 t=1",
        lambda: liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 2),
        lambda: AugmentedModel(TestAndSetBox()),
        1,
    ),
    (
        "IIS+t&s n=2 t=2",
        lambda: approximate_agreement_task([1, 2], F(1, 3), 3),
        lambda: AugmentedModel(TestAndSetBox()),
        2,
    ),
    (
        "IIS+bc with β n=3 t=1",
        lambda: binary_consensus_task([1, 2, 3]),
        lambda: AugmentedModel(
            BinaryConsensusBox(), beta_input_function({1: 0, 2: 1, 3: 1})
        ),
        1,
    ),
    (
        "value-reading α n=2 t=1",
        lambda: approximate_agreement_task([1, 2], F(1, 4), 4),
        lambda: AugmentedModel(BinaryConsensusBox(), _value_reading_alpha),
        1,
    ),
    (
        "value-reading α n=2 t=2",
        lambda: approximate_agreement_task([1, 2], F(1, 2), 2),
        lambda: AugmentedModel(BinaryConsensusBox(), _value_reading_alpha),
        2,
    ),
    (
        "string consensus with t&s n=2 t=1",
        lambda: multivalued_consensus_task([1, 2], ["x", "y", "z"]),
        lambda: AugmentedModel(TestAndSetBox()),
        1,
    ),
]


@pytest.mark.parametrize(
    "task, model, rounds",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_template_compile_matches_reference(task, model, rounds):
    task, model = task(), model()
    simplices = list(task.input_complex)
    problem = build_solvability_problem(
        simplices, task.delta, ProtocolOperator(model), rounds
    )
    vertices, outputs, domains, constraints = reference_compile(
        simplices, task.delta, ProtocolOperator(model), rounds
    )
    assert problem.vertices == vertices
    assert problem.outputs == outputs
    assert problem.domains == domains
    assert frozenset(zip(problem.scopes, problem.allowed)) == constraints
    # One constraint per (facet, Δ(σ)) pair, however many σ share it.
    assert len(problem.scopes) == len(constraints)
