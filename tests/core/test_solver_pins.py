"""Parity pins for the solvability search.

The node counts and decision maps below were recorded with the
object-keyed solver that preceded the integer-native one.  The search
must try candidates in the same order and visit components in the same
order, so any change to either shows up here as a different node count
or a different map.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from repro.core.solvability import build_solvability_problem
from repro.models import (
    ImmediateSnapshotModel,
    ProtocolOperator,
    SnapshotModel,
)
from repro.objects import AugmentedModel, TestAndSetBox
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
    multivalued_consensus_task,
)
from repro.topology import View

F = Fraction


def _canonical(value) -> str:
    """Text for a vertex value in which equal values read alike.

    ``repr`` will not do: equal values of different types (``0`` and
    ``Fraction(0)``) print differently, and which of two equal objects a
    complex keeps depends on what the process built before.
    """
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    if isinstance(value, View):
        return "View(%s)" % ",".join(
            f"{color}:{_canonical(item)}" for color, item in value.items
        )
    if isinstance(value, tuple):
        return "(%s)" % ",".join(_canonical(item) for item in value)
    if isinstance(value, frozenset):
        return "{%s}" % ",".join(sorted(_canonical(item) for item in value))
    return repr(value)


def _map_digest(decision) -> str:
    """sha256 over the decision map's items, in canonical text, sorted."""
    lines = sorted(
        f"{source.color}:{_canonical(source.value)} -> "
        f"{image.color}:{_canonical(image.value)}"
        for source, image in decision.assignment.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: (label, task factory, model factory, rounds, search nodes, digest)
PINNED_MAPS = [
    (
        "eps-AA n=2 IIS t=2 m=9",
        lambda: approximate_agreement_task([1, 2], F(1, 9), 9),
        ImmediateSnapshotModel,
        2,
        704,
        "ce5e812fe27f0cf60e8a20fc73c1423d80d03a13a81a9bbd75760fd770e7267f",
    ),
    (
        "binary consensus with test&set n=2 t=1",
        lambda: binary_consensus_task([1, 2]),
        lambda: AugmentedModel(TestAndSetBox()),
        1,
        0,
        "2fda4b28e9b5c70f6993d810fa40b914ab5960d7e13c70a589a7ab5cdd55963e",
    ),
    (
        "liberal eps-AA n=3 IIS t=1 m=2",
        lambda: liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 2),
        ImmediateSnapshotModel,
        1,
        90,
        "8fb4c478d62b55bff5a1c6f386c54942e9f6ffbbd6ac91da5ca7d18bdca692b6",
    ),
    (
        "eps-AA n=2 snapshot t=1 m=2",
        lambda: approximate_agreement_task([1, 2], F(1, 2), 2),
        SnapshotModel,
        1,
        12,
        "df3733c4a0b1ea4ff3ad6e571019c7a2ca84f0f66eb4782f9b5212e666aca1fe",
    ),
    (
        "multivalued consensus with test&set n=2 t=1",
        lambda: multivalued_consensus_task([1, 2], ["x", "y", "z"]),
        lambda: AugmentedModel(TestAndSetBox()),
        1,
        0,
        "a3c01f808928fb67ab0e4d7cc72aeaecc7dc47afb88981f774966ddf98fb79b5",
    ),
]


@pytest.mark.parametrize(
    "task, model, rounds, nodes, digest",
    [pytest.param(*entry[1:], id=entry[0]) for entry in PINNED_MAPS],
)
def test_decision_map_is_pinned(task, model, rounds, nodes, digest):
    task = task()
    operator = ProtocolOperator(model())
    problem = build_solvability_problem(
        list(task.input_complex),
        task.delta,
        operator,
        rounds,
    )
    decision = problem.solve()
    assert decision is not None
    assert problem.last_search_nodes == nodes
    assert _map_digest(decision) == digest


@pytest.mark.parametrize(
    "use_propagation, use_components, nodes",
    [
        pytest.param(True, True, 0, id="full"),
        pytest.param(False, True, 25, id="components_only"),
        pytest.param(True, False, 0, id="propagation_only"),
    ],
)
def test_ablation_node_counts_are_pinned(
    use_propagation, use_components, nodes
):
    # E18's three bounded configurations on its canonical refutation
    # (one-round eps = 1/4 AA, n = 2); "none" thrashes into the
    # 2,000,000-node budget and is left to the slow ablation bench.
    task = approximate_agreement_task([1, 2], F(1, 4), 4)
    operator = ProtocolOperator(ImmediateSnapshotModel())
    problem = build_solvability_problem(
        list(task.input_complex),
        task.delta,
        operator,
        1,
    )
    assert problem.solve(use_propagation, use_components) is None
    assert problem.last_search_nodes == nodes
