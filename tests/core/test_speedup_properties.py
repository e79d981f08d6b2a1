"""Property-based tests of the speedup theorem on *random* tasks.

Theorem 1 is universally quantified over tasks; hypothesis generates random
two-process task specifications (arbitrary, possibly non-monotone Δ over
binary inputs and outputs), searches for a one-round solution, and — when
one exists — checks that the constructed ``f'`` solves the closure in zero
rounds.  Also checks closure monotonicity ``Δ(σ) ⊆ Δ'(σ)`` on random tasks
and that solutions found by the engine are genuine.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClosureComputer, find_decision_map, verify_speedup_theorem
from repro.models import ImmediateSnapshotModel, ProtocolOperator
from repro.tasks import Task
from repro.tasks.inputs import binary_input_complex
from repro.topology import Simplex, SimplicialComplex

IIS = ImmediateSnapshotModel()
IDS = (1, 2)

# All full-ID output assignments over binary values, for each ID set.
_ASSIGNMENTS = {
    frozenset(subset): [
        Simplex(zip(sorted(subset), combo))
        for combo in product((0, 1), repeat=len(subset))
    ]
    for size in (1, 2)
    for subset in [IDS[:size], IDS[1:][: size - 1] or (2,)]
}
_ASSIGNMENTS[frozenset({1})] = [Simplex([(1, 0)]), Simplex([(1, 1)])]
_ASSIGNMENTS[frozenset({2})] = [Simplex([(2, 0)]), Simplex([(2, 1)])]
_ASSIGNMENTS[frozenset({1, 2})] = [
    Simplex([(1, a), (2, b)]) for a in (0, 1) for b in (0, 1)
]


@st.composite
def random_tasks(draw):
    """A random 2-process task with binary inputs and outputs.

    Each input simplex independently receives a random non-empty set of
    legal output assignments on its colors — including non-monotone and
    asymmetric specifications.
    """
    input_complex = binary_input_complex(IDS)
    table = {}
    for sigma in input_complex:
        options = _ASSIGNMENTS[sigma.ids]
        chosen = draw(
            st.lists(
                st.sampled_from(options),
                min_size=1,
                max_size=len(options),
                unique=True,
            )
        )
        table[sigma] = SimplicialComplex(chosen)
    output_complex = SimplicialComplex(
        facet for complex_ in table.values() for facet in complex_.facets
    )

    def delta(sigma):
        return table[sigma]

    return Task("random-task", input_complex, output_complex, delta)


@given(random_tasks())
@settings(max_examples=60, deadline=None)
def test_speedup_theorem_holds_on_random_tasks(task):
    decision = find_decision_map(task, IIS, 1)
    if decision is None:
        return  # Theorem 1 only speaks about solvable tasks.
    report = verify_speedup_theorem(task, IIS, decision)
    assert report.original_valid
    assert report.sped_up_valid, (
        f"speedup violated on { {s: task.delta(s) for s in task.input_complex} }: "
        f"{report.violations}"
    )


@given(random_tasks())
@settings(max_examples=40, deadline=None)
def test_closure_contains_delta_on_random_tasks(task):
    computer = ClosureComputer(task, IIS)
    for sigma in task.input_complex:
        for facet in task.delta(sigma).facets:
            if facet.ids == sigma.ids:
                assert computer.contains(sigma, facet)


@given(random_tasks())
@settings(max_examples=30, deadline=None)
def test_found_decision_maps_are_genuine(task):
    operator = ProtocolOperator(IIS)
    decision = find_decision_map(task, IIS, 1, operator=operator)
    if decision is None:
        return
    for sigma in task.input_complex:
        allowed = task.delta(sigma).simplices
        for facet in operator.of_simplex(sigma, 1).facets:
            assert decision.output_simplex(facet) in allowed


@given(random_tasks())
@settings(max_examples=30, deadline=None)
def test_zero_round_solvability_implies_one_round(task):
    # Monotonicity of solvability in the round count: a 0-round algorithm
    # can be run as a 1-round algorithm that ignores its collect.
    zero = find_decision_map(task, IIS, 0)
    if zero is None:
        return
    assert find_decision_map(task, IIS, 1) is not None


# ---------------------------------------------------------------------------
# Theorem 2 (augmented models) on random tasks
# ---------------------------------------------------------------------------

from repro.objects import AugmentedModel, TestAndSetBox  # noqa: E402

TAS_MODEL = AugmentedModel(TestAndSetBox())


@given(random_tasks())
@settings(max_examples=40, deadline=None)
def test_extended_speedup_theorem_holds_on_random_tasks(task):
    # Theorem 2: the same universality with a black box in the loop.
    decision = find_decision_map(task, TAS_MODEL, 1)
    if decision is None:
        return
    report = verify_speedup_theorem(task, TAS_MODEL, decision)
    assert report.original_valid
    assert report.sped_up_valid, (
        f"extended speedup violated on { {s: task.delta(s) for s in task.input_complex} }: "
        f"{report.violations}"
    )


@given(random_tasks())
@settings(max_examples=30, deadline=None)
def test_box_never_hurts_solvability(task):
    # Anything 1-round solvable with registers alone stays solvable with
    # test&set available (the algorithm may ignore the box).
    if find_decision_map(task, IIS, 1) is not None:
        assert find_decision_map(task, TAS_MODEL, 1) is not None
