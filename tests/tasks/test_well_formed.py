"""Every task family is well-formed (Section 2.2).

One case per task factory of :mod:`repro.tasks`, plus local tasks
(Definition 1) and two closures ``CL_IIS(Π)`` (Definition 2), since the
solver and the closure machinery treat all of them as tasks.  For every
input simplex ``σ``: ``Δ(σ)`` preserves names (``ID(Δ(σ)) ⊆ ID(σ)``), it
lies inside the output complex ``O``, and every complex of the triple
stores inclusion-maximal facets only.
"""

from fractions import Fraction

import pytest

from repro.core import ClosureComputer, local_task
from repro.models import ImmediateSnapshotModel
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
    multivalued_consensus_task,
    relaxed_consensus_task,
    renaming_task,
    set_agreement_task,
)
from repro.tasks.inputs import input_simplex
from tests.properties import is_maximal, name_leaks, outputs_outside


def closure(task):
    return ClosureComputer(task, ImmediateSnapshotModel()).as_task()


TASKS = {
    "consensus-n2": lambda: binary_consensus_task([1, 2]),
    "consensus-n3": lambda: binary_consensus_task([1, 2, 3]),
    "multivalued-consensus-n3": lambda: multivalued_consensus_task(
        [1, 2, 3], [0, 1, 2]
    ),
    "relaxed-consensus-n3": lambda: relaxed_consensus_task([1, 2, 3]),
    "aa-n2": lambda: approximate_agreement_task(
        [1, 2], Fraction(1, 4), 4
    ),
    "aa-n3": lambda: approximate_agreement_task(
        [1, 2, 3], Fraction(1, 2), 2
    ),
    "liberal-aa-n3": lambda: liberal_approximate_agreement_task(
        [1, 2, 3], Fraction(1, 2), 2
    ),
    "2-set-agreement-n3": lambda: set_agreement_task(
        [1, 2, 3], [0, 1, 2], 2
    ),
    "renaming-n2": lambda: renaming_task([1, 2], 3),
    "local-consensus-n3": lambda: local_task(
        binary_consensus_task([1, 2, 3]),
        input_simplex({1: 0, 2: 1}),
        input_simplex({1: 0, 2: 1}),
    ),
    "local-aa-n2": lambda: local_task(
        approximate_agreement_task([1, 2], Fraction(1, 4), 4),
        input_simplex({1: Fraction(0), 2: Fraction(1, 2)}),
        input_simplex({1: Fraction(0), 2: Fraction(1, 2)}),
    ),
    "closure-consensus-n2": lambda: closure(binary_consensus_task([1, 2])),
    "closure-half-aa-n2": lambda: closure(
        approximate_agreement_task([1, 2], Fraction(1, 2), 2)
    ),
}


@pytest.fixture(scope="module", params=sorted(TASKS))
def task(request):
    return TASKS[request.param]()


def test_delta_preserves_names(task):
    assert name_leaks(task.delta_map) == []


def test_delta_stays_inside_the_output_complex(task):
    assert outputs_outside(task) == []


def test_every_complex_stores_maximal_facets(task):
    assert is_maximal(task.input_complex)
    assert is_maximal(task.output_complex)
    for sigma in task.input_complex:
        assert is_maximal(task.delta(sigma)), sigma
