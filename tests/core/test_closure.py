"""Unit tests for the closure operator CL_M(Π) (Definition 2)."""

from fractions import Fraction
from itertools import product

import pytest

from repro.core import ClosureComputer
from repro.core.local_task import local_task
from repro.core.solvability import build_solvability_problem
from repro.models import (
    ImmediateSnapshotModel,
    ProtocolOperator,
    SnapshotModel,
)
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.tasks import (
    Task,
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
)
from repro.tasks.inputs import input_simplex
from repro.telemetry import ManualClock, tracing
from repro.topology import Simplex, SimplicialComplex, Vertex


def F(num, den=1):
    return Fraction(num, den)


def fresh_member(task, sigma, tau, model):
    """Membership the way it was decided before windows were shared.

    ``Π_{τ,σ}`` is compiled from scratch and solved; the test oracle for
    the shared window networks.
    """
    the_local_task = local_task(task, sigma, tau)
    problem = build_solvability_problem(
        list(the_local_task.input_complex),
        the_local_task.delta,
        ProtocolOperator(model),
        1,
    )
    return problem.solve() is not None


def candidates(task, sigma):
    """Every chromatic ``τ ⊆ V(Δ(σ))`` with ``ID(τ) = ID(σ)``."""
    allowed = task.delta(sigma)
    per_color = [allowed.vertices_of_color(i) for i in sorted(sigma.ids)]
    return [Simplex(combo) for combo in product(*per_color)]


def bc(beta):
    return AugmentedModel(BinaryConsensusBox(), beta_input_function(beta))


class TestMembership:
    def test_delta_subset_of_closure(self, iis):
        # Remark after Definition 2: Δ(σ) ⊆ Δ'(σ).
        task = binary_consensus_task([1, 2])
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: 0, 2: 1})
        for facet in task.delta(sigma).facets:
            assert computer.contains(sigma, facet)

    @pytest.mark.parametrize(
        "task",
        [
            binary_consensus_task([1, 2]),
            approximate_agreement_task([1, 2], F(1, 2), 2),
        ],
        ids=["consensus", "half-AA"],
    )
    def test_closure_keeps_inputs_and_contains_delta(self, iis, task):
        # Definition 2 keeps I, and Δ(σ) ⊆ Δ'(σ) on every input simplex.
        closure = ClosureComputer(task, iis).as_task()
        assert closure.input_complex == task.input_complex
        for sigma in task.input_complex:
            prime = closure.delta(sigma)
            for facet in task.delta(sigma).facets:
                assert facet in prime, (sigma, facet)

    def test_consensus_closure_rejects_disagreement(self, iis):
        task = binary_consensus_task([1, 2])
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: 0, 2: 1})
        assert not computer.contains(sigma, input_simplex({1: 0, 2: 1}))
        assert not computer.contains(sigma, input_simplex({1: 1, 2: 0}))

    def test_membership_cached_across_translated_sigmas(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        computer = ClosureComputer(task, iis)
        sigma_a = input_simplex({1: F(0), 2: F(1, 2)})
        sigma_b = input_simplex({1: F(1, 2), 2: F(0)})  # same window
        tau = input_simplex({1: F(0), 2: F(1, 2)})
        computer.contains(sigma_a, tau)
        before = len(computer._membership_cache)
        computer.contains(sigma_b, tau)
        assert len(computer._membership_cache) == before


class TestClosureOfAA:
    def test_closure_of_quarter_is_half_two_procs(self, iis):
        # Claim 2 on one window: ε = 1/4 closes to 3ε = 3/4.
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        bigger = approximate_agreement_task([1, 2], F(3, 4), 4)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1)})
        assert (
            computer.delta_prime(sigma).simplices
            == bigger.delta(sigma).simplices
        )

    def test_closure_of_liberal_quarter_is_half_three_procs(self, iis):
        # Claim 3 on one window.
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        bigger = liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 4)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1, 2), 3: F(1)})
        assert (
            computer.delta_prime(sigma).simplices
            == bigger.delta(sigma).simplices
        )

    def test_legal_outputs_sorted_and_full_id(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1)})
        outputs = computer.legal_outputs(sigma)
        assert outputs == sorted(outputs, key=lambda s: s._sort_key())
        assert all(tau.ids == sigma.ids for tau in outputs)


class TestClosureTask:
    def test_as_task_keeps_inputs(self, iis):
        task = binary_consensus_task([1, 2])
        closed = ClosureComputer(task, iis).as_task()
        assert closed.input_complex == task.input_complex

    def test_closure_of_consensus_is_consensus(self, iis):
        # Corollary 1's engine: CL(consensus) has the same specification.
        task = binary_consensus_task([1, 2])
        closed = ClosureComputer(task, iis).as_task()
        for sigma in task.input_complex:
            assert closed.delta(sigma) == task.delta(sigma)

    def test_closure_name(self, iis):
        task = binary_consensus_task([1, 2])
        closed = ClosureComputer(task, iis).as_task()
        assert closed.name == f"CL_{iis.name}({task.name})"

    def test_closure_output_complex_covers_images(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        closed = ClosureComputer(task, iis).as_task()
        for sigma in task.input_complex:
            assert (
                closed.delta(sigma).simplices
                <= closed.output_complex.simplices
            )

    def test_restricted_materialization(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1)})
        closed = computer.as_task(input_simplices=[sigma])
        assert closed.delta(sigma) == computer.delta_prime(sigma)


class TestClosureWithBoxes:
    def test_tas_closure_of_2proc_consensus_is_everything(self, iis_tas):
        # Section 4.3: with test&set, 2-process consensus is 1-round
        # solvable, so its closure allows every chromatic output pair.
        task = binary_consensus_task([1, 2])
        computer = ClosureComputer(task, iis_tas)
        sigma = input_simplex({1: 0, 2: 1})
        outputs = set(computer.legal_outputs(sigma))
        assert len(outputs) == 4  # all bit pairs


#: β of the fixed-β rows: majority side {1, 3}.
PARITY_BETA = {1: 0, 2: 1, 3: 0}

#: (label, model factory, members among the two windows' 128
#: candidates).
PARITY_MODELS = [
    ("IIS", ImmediateSnapshotModel, 92),
    ("snapshot", SnapshotModel, 92),
    ("IIS+t&s", lambda: AugmentedModel(TestAndSetBox()), 92),
    ("IIS+bc|β", lambda: bc(PARITY_BETA), 112),
]


def non_pure_task():
    """One window whose ``Δ(σ)`` has an isolated vertex ``(1, "c")``.

    Arc consistency on the unpinned network drops ``"c"`` from process
    1's solo domain, so a ``τ`` pinning it is refuted by the pin itself.
    """
    sigma = Simplex([(1, 0), (2, 0)])
    allowed = SimplicialComplex(
        [
            Simplex([(1, "a"), (2, "a")]),
            Simplex([(1, "b"), (2, "b")]),
            Simplex([(1, "c")]),
        ]
    )
    task = Task(
        "non-pure",
        SimplicialComplex.from_simplex(sigma),
        allowed,
        lambda face: allowed if face == sigma else allowed.proj(face.ids),
    )
    return task, sigma


class TestSharedWindowParity:
    """Each τ decided on its window's network, as a fresh compile would."""

    @pytest.mark.parametrize(
        "label, make_model, members",
        PARITY_MODELS,
        ids=[row[0] for row in PARITY_MODELS],
    )
    def test_every_candidate_of_two_windows(self, label, make_model, members):
        model = make_model()
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        computer = ClosureComputer(task, model)
        windows = [
            input_simplex({1: F(0), 2: F(1, 4), 3: F(3, 4)}),
            input_simplex({1: F(1, 4), 2: F(1, 2), 3: F(1)}),
        ]
        found = 0
        for sigma in windows:
            for tau in candidates(task, sigma):
                member = computer.contains(sigma, tau)
                assert member == fresh_member(task, sigma, tau, model), tau
                found += member
        assert found == members
        # At most one network per window, however many τ it decides.
        assert len(computer._windows) <= len(windows)

    @pytest.mark.parametrize(
        "make_model",
        [ImmediateSnapshotModel, lambda: AugmentedModel(TestAndSetBox())],
        ids=["IIS", "IIS+t&s"],
    )
    def test_non_pure_window(self, make_model):
        model = make_model()
        task, sigma = non_pure_task()
        computer = ClosureComputer(task, model)
        for tau in candidates(task, sigma):
            assert computer.contains(sigma, tau) == fresh_member(
                task, sigma, tau, model
            ), tau
        (window,) = computer._windows.values()
        isolated = window.bit_of[Vertex(1, "c")]
        (solo,) = window.solo[1]
        assert not window.settled.domains[solo] & isolated

    def test_value_reading_alpha_splits_windows(self):
        # α reads the value: τ's box inputs, hence its one-round shape,
        # change within one Δ(σ), so those τ must not share a network.
        def alpha(vertex):
            return int(vertex.value >= F(1, 2))

        model = AugmentedModel(BinaryConsensusBox(), alpha)
        # At m = 6, a network shared across box inputs errs on 12 of
        # the 49 candidates.
        task = approximate_agreement_task([1, 2], F(1, 6), 6)
        sigma = input_simplex({1: F(0), 2: F(1)})
        computer = ClosureComputer(task, model)
        allowed = task.delta(sigma)
        decided = []
        for tau in candidates(task, sigma):
            assert computer.contains(sigma, tau) == fresh_member(
                task, sigma, tau, model
            ), tau
            if tau not in allowed:
                decided.append(tau)
        inputs = {tuple(alpha(v) for v in tau.vertices) for tau in decided}
        assert len(inputs) > 1
        assert len(computer._windows) == len(inputs)


class TestWindowObservability:
    def test_compile_span_and_counter_per_window_miss(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: F(0), 2: F(1)})
        with tracing(clock=ManualClock(tick=0.001)) as tracer:
            computer.legal_outputs(sigma)

        def walk(spans):
            for item in spans:
                yield item
                yield from walk(item.children)

        spans = list(walk(tracer.roots))
        compiles = [s for s in spans if s.name == "closure/compile-window"]
        decides = [s for s in spans if s.name == "closure/decide"]
        # One window compiled (one compile span, one cached window), and
        # every later decision reused it.
        assert len(compiles) == 1
        assert len(computer._windows) == 1
        assert compiles[0].attributes["participants"] == 2
        assert len(decides) > 1
        assert all("member" in s.attributes for s in decides)
