"""Unit tests for the solvability decision procedure."""

import math
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

import repro.core.solvability as solvability_module
from repro.core import check_decision_map, find_decision_map, is_solvable
from repro.core.solvability import (
    DecisionMap,
    SolvabilityProblem,
    build_solvability_problem,
)
from repro.errors import SolvabilityError
from repro.models import ProtocolOperator
from repro.models.protocol import decode_vertex
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
    multivalued_consensus_task,
    set_agreement_task,
)
from repro.tasks.inputs import input_simplex
from repro.tasks.task import Task
from repro.telemetry import ManualClock, span, tracing
from repro.topology import Simplex, SimplicialComplex, Vertex
from repro.topology.connectivity import farthest_facet
from repro.topology.table import iter_bits
from tests.topology.reference import one_skeleton_adjacency


def F(num, den=1):
    return Fraction(num, den)


def certified_map(task, model, rounds, input_simplices=None):
    """Solve, and re-check any map found with the independent checker."""
    operator = ProtocolOperator(model)
    simplices = (
        list(input_simplices)
        if input_simplices is not None
        else list(task.input_complex)
    )
    decision = find_decision_map(
        task, model, rounds, simplices, operator=operator
    )
    if decision is not None:
        check_decision_map(
            simplices,
            task.delta,
            lambda sigma: operator.of_simplex(sigma, rounds),
            decision,
        )
    return decision


def solvable(task, model, rounds, input_simplices=None):
    return certified_map(task, model, rounds, input_simplices) is not None


class TestZeroRounds:
    def test_trivial_task_zero_round_solvable(self, iis):
        # "Output your input" is 0-round solvable.
        task = approximate_agreement_task([1, 2], 1, 1)
        assert solvable(task, iis, 0)

    def test_consensus_not_zero_round_solvable(self, iis):
        assert not is_solvable(binary_consensus_task([1, 2]), iis, 0)

    def test_claim1_aa_not_zero_round_solvable(self, iis):
        # Claim 1: ε < 1 ⟹ no 0-round algorithm.
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        assert not is_solvable(task, iis, 0)

    def test_negative_rounds_rejected(self, iis):
        with pytest.raises(SolvabilityError):
            is_solvable(binary_consensus_task([1, 2]), iis, -1)


class TestOneRound:
    def test_half_aa_solvable_in_one_round_two_procs(self, iis):
        # ⌈log₃ 3⌉ = 1 round suffices for ε = 1/3 … use ε = 1/2 with m = 2:
        # ⌈log₃ 2⌉ = 1.
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        decision = certified_map(task, iis, 1)
        assert decision is not None
        assert decision.rounds == 1

    def test_half_aa_solvable_in_one_round_three_procs(self, iis):
        task = approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        assert solvable(task, iis, 1)

    def test_consensus_not_one_round_solvable(self, iis):
        assert not is_solvable(binary_consensus_task([1, 2]), iis, 1)

    def test_decision_map_respects_delta(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        decision = find_decision_map(task, iis, 1, operator=operator)
        check_decision_map(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, 1),
            decision,
        )
        for sigma in task.input_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 1).facets:
                assert decision.output_simplex(facet) in allowed

    def test_restricting_inputs_can_make_solvable(self, iis):
        # On uniform inputs only, consensus is trivially solvable.
        task = binary_consensus_task([1, 2])
        uniform = [
            input_simplex({1: 0, 2: 0}),
            input_simplex({1: 1, 2: 1}),
            input_simplex({1: 0}),
            input_simplex({2: 1}),
            input_simplex({1: 1}),
            input_simplex({2: 0}),
        ]
        assert solvable(task, iis, 0, input_simplices=uniform)


class TestQuarterEpsilon:
    def test_quarter_aa_needs_two_rounds(self, iis):
        # Corollary 3 for n = 2: ⌈log₃ 4⌉ = 2 rounds; one round must fail.
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        assert not is_solvable(task, iis, 1)

    def test_quarter_aa_two_rounds_suffice_constructively(self, iis):
        # Existence via the explicit algorithm (Eq. 2 iterated), instead of
        # an expensive blind search: extract its decision map and check it
        # against Δ — this *is* a 2-round solvability witness.
        from repro.algorithms import TwoProcessThirdsAA
        from repro.models import ProtocolOperator
        from repro.runtime import extract_decision_map

        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        algorithm = TwoProcessThirdsAA(F(1, 4))
        assert algorithm.rounds == 2
        decision = extract_decision_map(algorithm, iis, task.input_complex)
        operator = ProtocolOperator(iis)
        check_decision_map(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, 2),
            decision,
        )
        for sigma in task.input_complex:
            allowed = task.delta(sigma).simplices
            for facet in operator.of_simplex(sigma, 2).facets:
                assert decision.output_simplex(facet) in allowed


class TestAugmentedSolvability:
    def test_two_proc_consensus_with_tas_one_round(self, iis_tas):
        # Fig. 4: binary consensus for 2 processes, one round with test&set.
        assert solvable(binary_consensus_task([1, 2]), iis_tas, 1)

    def test_multivalued_two_proc_with_tas(self, iis_tas):
        task = multivalued_consensus_task([1, 2], ["x", "y", "z"])
        assert solvable(task, iis_tas, 1)

    def test_two_proc_consensus_without_tas_unsolvable(self, iis):
        assert not is_solvable(binary_consensus_task([1, 2]), iis, 1)
        assert not is_solvable(binary_consensus_task([1, 2]), iis, 2)


class TestProblemCompilation:
    def test_empty_domain_means_unsolvable(self, iis):
        task = binary_consensus_task([1, 2])
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(task.input_complex),
            task.delta,
            operator,
            1,
        )
        # Candidate domains are non-empty (the search fails later).
        assert all(problem.domains)
        assert problem.solve() is None

    def test_candidates_are_color_preserving(self, iis):
        task = binary_consensus_task([1, 2])
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(task.input_complex),
            task.delta,
            operator,
            1,
        )
        for vertex, domain in zip(problem.vertices, problem.domains):
            assert all(
                problem.outputs[bit].color == vertex.color
                for bit in iter_bits(domain)
            )


class TestProblemConstruction:
    """Regressions for the dataclass field layout and search-state reset."""

    def _compiled(self, iis, rounds=1):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        return build_solvability_problem(
            list(task.input_complex),
            task.delta,
            operator,
            rounds,
        )

    @staticmethod
    def _tables(compiled):
        return (
            compiled.vertices,
            compiled.outputs,
            compiled.domains,
            compiled.scopes,
            compiled.allowed,
        )

    def test_positional_construction_binds_rounds(self, iis):
        # ``last_search_nodes`` once leaked into the dataclass __init__ as
        # a positional parameter after ``rounds``, silently swallowing
        # arguments meant for nothing.  Positional construction must bind
        # exactly the compiled tables and ``rounds``.
        compiled = self._compiled(iis)
        problem = SolvabilityProblem(*self._tables(compiled), 3)
        assert problem.rounds == 3
        assert problem.last_search_nodes == 0
        assert self._tables(problem) == self._tables(compiled)
        assert list(problem.constraints) == list(compiled.constraints)

    def test_no_fourth_positional_parameter(self, iis):
        # Nothing binds after ``rounds``.
        compiled = self._compiled(iis)
        with pytest.raises(TypeError):
            SolvabilityProblem(*self._tables(compiled), 3, 99)

    def test_last_search_nodes_not_settable_at_init(self, iis):
        compiled = self._compiled(iis)
        with pytest.raises(TypeError):
            SolvabilityProblem(
                *self._tables(compiled),
                rounds=1,
                last_search_nodes=5,
            )


class TestBudgetRecovery:
    """A budget failure must not poison later solves (satellite b)."""

    def _hard_but_solvable(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        return build_solvability_problem(
            list(task.input_complex),
            task.delta,
            operator,
            1,
        )

    def test_resolve_after_budget_failure(self, iis):
        problem = self._hard_but_solvable(iis)
        # Starve the raw search so SolvabilityError fires mid-backtrack.
        with pytest.raises(SolvabilityError):
            problem.solve(
                use_propagation=False, use_components=False, node_limit=1
            )
        # The interrupted search must have unwound its partial assignment;
        # a fresh solve on the same instance still finds the map.
        decision = problem.solve()
        assert decision is not None
        for facet, allowed in problem.constraints:
            assert decision.output_simplex(facet) in allowed
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        check_decision_map(
            list(task.input_complex),
            task.delta,
            lambda sigma: operator.of_simplex(sigma, 1),
            decision,
        )

    def test_budget_failure_repeatable(self, iis):
        problem = self._hard_but_solvable(iis)
        for _ in range(2):
            with pytest.raises(SolvabilityError):
                problem.solve(
                    use_propagation=False,
                    use_components=False,
                    node_limit=1,
                )
        assert problem.solve() is not None


def _recursive_search(problem, use_components):
    """The recursive backtracking the explicit-stack search replaced.

    Returns ``(assignment or None, nodes)`` over the same pre-search
    state, trying candidates in the same order (ascending output bit)
    and counting a node per tried candidate.  Its consistency test is
    its own, read straight off the compiled scopes and allowed masks.
    """
    prepared = problem.prepare_search(
        use_propagation=False, use_components=use_components
    )
    if prepared is None:
        return None, 0
    domains, assignment, components = prepared
    nodes = 0
    touching = {index: [] for index in range(len(domains))}
    for scope, allowed in zip(problem.scopes, problem.allowed):
        for index in scope:
            touching[index].append((scope, allowed))

    def consistent(vertex):
        for scope, allowed in touching[vertex]:
            images = [assignment[index] for index in scope]
            assigned = [image for image in images if image]
            if len(assigned) >= 2 and sum(assigned) not in allowed:
                return False
        return True

    def backtrack(order, depth):
        nonlocal nodes
        if depth == len(order):
            return True
        vertex = order[depth]
        for bit in range(domains[vertex].bit_length()):
            if not domains[vertex] >> bit & 1:
                continue
            nodes += 1
            assignment[vertex] = 1 << bit
            if consistent(vertex) and backtrack(order, depth + 1):
                return True
            assignment[vertex] = 0
        return False

    for component in components:
        order = sorted(
            component, key=lambda v: (bin(domains[v]).count("1"), v)
        )
        if not backtrack(order, 0):
            return None, nodes
    decoded = {
        problem.vertices[index]: problem.outputs[image.bit_length() - 1]
        for index, image in enumerate(assignment)
    }
    return decoded, nodes


class TestExplicitStackSearch:
    """The iterative search agrees with plain recursion, node for node."""

    # Without components, the single search backtracks across many
    # levels and re-enters them, which the per-component searches of
    # these small instances rarely do.
    @pytest.mark.parametrize(
        "task, use_components",
        [
            (approximate_agreement_task([1, 2], F(1, 2), 2), True),
            (approximate_agreement_task([1, 2], F(1, 4), 4), True),
            (binary_consensus_task([1, 2]), True),
            (binary_consensus_task([1, 2]), False),
            (approximate_agreement_task([1, 2], F(1, 3), 3), True),
            (approximate_agreement_task([1, 2], F(1, 3), 3), False),
            (approximate_agreement_task([1, 2, 3], F(1, 2), 2), False),
        ],
    )
    def test_same_verdict_map_and_node_count(
        self, iis, task, use_components
    ):
        operator = ProtocolOperator(iis)

        def compiled():
            return build_solvability_problem(
                list(task.input_complex),
                task.delta,
                operator,
                1,
            )

        expected, expected_nodes = _recursive_search(
            compiled(), use_components
        )
        problem = compiled()
        found = problem.solve(
            use_propagation=False, use_components=use_components
        )
        assert problem.last_search_nodes == expected_nodes
        if expected is None:
            assert found is None
        else:
            assert found is not None
            assert dict(found.assignment) == expected
            check_decision_map(
                list(task.input_complex),
                task.delta,
                lambda sigma: operator.of_simplex(sigma, 1),
                found,
            )

    def test_budget_abort_unwinds_every_component_vertex(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(task.input_complex),
            task.delta,
            operator,
            1,
        )
        domains, assignment, components = problem.prepare_search(
            use_propagation=False, use_components=False
        )
        forced = list(assignment)
        with pytest.raises(SolvabilityError, match="node budget of 5"):
            problem._search_component(
                components[0], domains, assignment, node_limit=5
            )
        assert problem.last_search_nodes == 6
        assert assignment == forced

    def test_deep_component_does_not_hit_the_recursion_limit(self):
        # One search level per free protocol vertex: under IS with three
        # processes and two rounds the single component is deeper than
        # the interpreter's default recursion limit.  The closed form
        # 2^t >= m (here 4 >= 4) says two rounds suffice.
        from repro.models import ImmediateSnapshotModel

        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 4), 4)
        assert solvable(task, ImmediateSnapshotModel(), 2)


class TestPinnedPropagation:
    """``propagated`` then ``pinned`` equals propagating the pins afresh."""

    @staticmethod
    def compiled(iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        return build_solvability_problem(
            list(task.input_complex),
            task.delta,
            operator,
            1,
        )

    def test_every_pin_pair_matches_a_fresh_propagation(self, iis):
        problem = self.compiled(iis)
        settled = problem.propagated()
        assert settled is not None
        pins = [
            (vertex, 1 << bit)
            for vertex, domain in enumerate(problem.domains)
            for bit in iter_bits(domain)
        ]
        outcomes = set()
        for (u, u_bit), (v, v_bit) in combinations(pins, 2):
            if u == v:
                continue
            start = list(problem.domains)
            start[u] &= u_bit
            start[v] &= v_bit
            fresh = replace(problem, domains=tuple(start)).propagated()
            pinned = settled.pinned({u: u_bit, v: v_bit})
            if pinned is None:
                outcomes.add("pin")
                assert fresh is None
                continue
            pinned = pinned.propagated()
            if pinned is None:
                outcomes.add("propagation")
                assert fresh is None
                continue
            assert pinned.domains == fresh.domains
            assert pinned.solve() is not None
            outcomes.add("solved")
        assert outcomes == {"pin", "propagation", "solved"}

    def test_pin_ands_into_the_settled_domain(self, iis):
        problem = self.compiled(iis)
        settled = problem.propagated()
        pruned = [
            (vertex, before & ~after)
            for vertex, (before, after) in enumerate(
                zip(problem.domains, settled.domains)
            )
            if before != after
        ]
        # A value propagation already removed cannot be pinned back.
        assert pruned
        for vertex, removed in pruned:
            assert settled.pinned({vertex: removed}) is None


class TestDecisionMapChecker:
    """The independent checker rejects maps that do not solve the task."""

    def _instance(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        operator = ProtocolOperator(iis)
        simplices = list(task.input_complex)

        def protocol_of(sigma):
            return operator.of_simplex(sigma, 1)

        decision = find_decision_map(task, iis, 1, operator=operator)
        assert decision is not None
        return task, simplices, protocol_of, decision

    def _mutant(self, decision, changes=(), dropped=()):
        assignment = dict(decision.assignment)
        assignment.update(changes)
        for vertex in dropped:
            del assignment[vertex]
        return DecisionMap(assignment, decision.rounds)

    def _solo_vertex(self, protocol_of, color, value):
        (vertex,) = protocol_of(input_simplex({color: value})).vertices
        return vertex

    def test_accepts_the_solver_map(self, iis):
        task, simplices, protocol_of, decision = self._instance(iis)
        check_decision_map(simplices, task.delta, protocol_of, decision)

    def test_rejects_a_one_image_mutant(self, iis):
        # A process running solo on input 0 must decide 0 (validity);
        # moving only that image to the far end of the range breaks Δ.
        task, simplices, protocol_of, decision = self._instance(iis)
        solo = self._solo_vertex(protocol_of, 1, F(0))
        assert decision(solo) == Vertex(1, F(0))
        mutant = self._mutant(decision, {solo: Vertex(1, F(1))})
        with pytest.raises(SolvabilityError, match="not a simplex"):
            check_decision_map(simplices, task.delta, protocol_of, mutant)

    def test_rejects_an_unassigned_vertex(self, iis):
        task, simplices, protocol_of, decision = self._instance(iis)
        solo = self._solo_vertex(protocol_of, 2, F(1))
        mutant = self._mutant(decision, dropped=[solo])
        with pytest.raises(SolvabilityError, match="unassigned"):
            check_decision_map(simplices, task.delta, protocol_of, mutant)

    def test_rejects_a_color_change(self, iis):
        task, simplices, protocol_of, decision = self._instance(iis)
        solo = self._solo_vertex(protocol_of, 1, F(0))
        mutant = self._mutant(decision, {solo: Vertex(2, F(0))})
        with pytest.raises(SolvabilityError, match="not chromatic"):
            check_decision_map(simplices, task.delta, protocol_of, mutant)

    def test_reads_only_the_asked_complexes(self, iis):
        # Checking one input edge asks the map for that edge's protocol
        # vertices and nothing else: it never iterates or sizes the map.
        task, simplices, protocol_of, decision = self._instance(iis)
        sigma = input_simplex({1: F(0), 2: F(1, 2)})
        counting = _KeyCountingMap(decision.assignment)
        check_decision_map(
            [sigma],
            task.delta,
            protocol_of,
            DecisionMap(counting, decision.rounds),
        )
        asked = set(protocol_of(sigma).vertices)
        assert counting.keys_read == asked
        assert len(asked) < len(decision.assignment)

    def test_ignores_colors_outside_the_asked_complexes(self, iis):
        # A non-chromatic image elsewhere in the map does not concern
        # the asked simplex.
        task, simplices, protocol_of, decision = self._instance(iis)
        far = self._solo_vertex(protocol_of, 1, F(1))
        mutant = self._mutant(decision, {far: Vertex(2, F(1))})
        sigma = input_simplex({1: F(0), 2: F(1, 2)})
        check_decision_map([sigma], task.delta, protocol_of, mutant)
        with pytest.raises(SolvabilityError, match="not chromatic"):
            check_decision_map(simplices, task.delta, protocol_of, mutant)


class _KeyCountingMap(Mapping):
    """A read-only map that records each key asked for, and refuses to
    be iterated or sized."""

    def __init__(self, inner):
        self._inner = inner
        self.keys_read = set()

    def __getitem__(self, key):
        self.keys_read.add(key)
        return self._inner[key]

    def __contains__(self, key):
        self.keys_read.add(key)
        return key in self._inner

    def __iter__(self):
        raise AssertionError("the checker iterated the decision map")

    def __len__(self):
        raise AssertionError("the checker sized the decision map")


def _full_instance_solvable(task, model, rounds, input_simplices=None):
    """The whole instance compiled and solved at once, with no core stage."""
    simplices = (
        list(input_simplices)
        if input_simplices is not None
        else list(task.input_complex)
    )
    problem = build_solvability_problem(
        simplices, task.delta, ProtocolOperator(model), rounds
    )
    return problem.solve() is not None


def _e17_simplices():
    rainbow = input_simplex({1: "a", 2: "b", 3: "c"})
    return [rainbow] + list(rainbow.proper_faces())


_KSET = set_agreement_task([1, 2, 3], ["a", "b", "c"], 2)

#: ``(label, task, model fixture, rounds, input simplices)``.
_SOUNDNESS_SWEEP = (
    [
        (f"aa-n2-m{m}-t{t}", approximate_agreement_task([1, 2], F(1, m), m),
         "iis", t, None)
        for t, grid in ((0, (1, 2)), (1, (2, 3, 4)), (2, (8, 9, 10)))
        for m in grid
    ]
    + [
        (f"liberal-n3-m{m}-{model}",
         liberal_approximate_agreement_task([1, 2, 3], F(1, m), m),
         model, 1, None)
        for model in ("iis", "iis_tas")
        for m in (1, 2, 3, 4)
    ]
    + [
        (f"consensus-n{n}-t{t}", binary_consensus_task(range(1, n + 1)),
         "iis", t, None)
        for n in (2, 3)
        for t in (0, 1)
    ]
    + [
        ("2-set-agreement-t0", _KSET, "iis", 0, None),
        ("2-set-agreement-e17-t0", _KSET, "iis", 0, _e17_simplices()),
        ("2-set-agreement-e17-t1", _KSET, "iis", 1, _e17_simplices()),
    ]
)


class TestCoreStage:
    """The core stage refutes on one input facet and changes no verdict."""

    @pytest.mark.parametrize(
        "task, model, rounds, simplices",
        [case[1:] for case in _SOUNDNESS_SWEEP],
        ids=[case[0] for case in _SOUNDNESS_SWEEP],
    )
    def test_verdict_equals_the_full_instance(
        self, request, task, model, rounds, simplices
    ):
        model = request.getfixturevalue(model)
        assert is_solvable(
            task, model, rounds, input_simplices=simplices
        ) is _full_instance_solvable(task, model, rounds, simplices)

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The input simplices of every compile, in call order."""
        calls = []
        build = solvability_module.build_solvability_problem

        def spy(input_simplices, *rest, **options):
            simplices = list(input_simplices)
            calls.append(simplices)
            return build(simplices, *rest, **options)

        monkeypatch.setattr(
            solvability_module, "build_solvability_problem", spy
        )
        return calls

    def test_refutation_compiles_only_the_core(self, iis, compiled):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        assert not is_solvable(task, iis, 1)
        widest = input_simplex({1: F(0), 2: F(1)})
        assert len(compiled) == 1
        assert set(compiled[0]) == set(widest.faces())

    def test_solvable_instance_is_decided_on_every_simplex(
        self, iis, compiled
    ):
        task = approximate_agreement_task([1, 2], F(1, 3), 3)
        assert solvable(task, iis, 1)
        assert len(compiled) == 2
        assert set(compiled[-1]) == set(task.input_complex)

    def test_non_face_closed_inputs_compile_only_given_simplices(
        self, iis, compiled
    ):
        task = binary_consensus_task([1, 2, 3])
        mixed = [
            sigma
            for sigma in task.input_complex.simplices_of_dim(2)
            if len({v.value for v in sigma.vertices}) == 2
        ]
        # Without its faces, consensus on mixed facets alone is solvable
        # (everyone decides 0): the core cannot refute, so both stages
        # compile, each inside the given set.
        assert solvable(task, iis, 0, input_simplices=mixed)
        assert [len(simplices) for simplices in compiled] == [1, len(mixed)]
        assert all(
            set(simplices) <= set(mixed) for simplices in compiled
        )

    def test_partial_faces_stay_outside_the_core(self, iis, compiled):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        wide = input_simplex({1: F(0), 2: F(1)})
        given = [
            wide,
            input_simplex({1: F(1), 2: F(1)}),
            input_simplex({1: F(0)}),
        ]
        is_solvable(task, iis, 0, input_simplices=given)
        assert compiled[0] == [wide, input_simplex({1: F(0)})]
        assert all(set(simplices) <= set(given) for simplices in compiled)

    def test_single_maximal_simplex_skips_the_core(self, iis, compiled):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1)})
        is_solvable(task, iis, 1, input_simplices=[sigma])
        assert compiled == [[sigma]]

    def test_mixed_consensus_facets_rank_first(self, iis, compiled):
        # Solo outputs 0 and 1 lie in different components of O's
        # top-dimensional facets: an infinite distance.
        task = binary_consensus_task([1, 2])
        assert not is_solvable(task, iis, 1)
        assert max(compiled[0], key=len) == input_simplex({1: 0, 2: 1})

    def test_one_core_span_per_attempt(self, iis):
        def core_spans(task, rounds, input_simplices=None):
            with tracing(clock=ManualClock(tick=0.001)) as tracer:
                is_solvable(task, iis, rounds, input_simplices)
            return [
                (
                    entry.attributes["ranked"],
                    entry.attributes["simplices"],
                    entry.attributes["refuted"],
                )
                for entry in tracer.roots
                if entry.name == "solvability/core"
            ]

        quarter = approximate_agreement_task([1, 2], F(1, 4), 4)
        third = approximate_agreement_task([1, 2], F(1, 3), 3)
        # 5^2 and 4^2 input facets are ranked.
        assert core_spans(quarter, 1) == [(25, 3, True)]
        assert core_spans(third, 1) == [(16, 3, False)]
        assert core_spans(_KSET, 1, _e17_simplices()) == []

    def test_the_ranking_runs_inside_the_core_span(self, iis, monkeypatch):
        rank = solvability_module.farthest_facet

        def probed(*args):
            with span("probe"):
                return rank(*args)

        monkeypatch.setattr(solvability_module, "farthest_facet", probed)
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        with tracing(clock=ManualClock(tick=0.001)) as tracer:
            is_solvable(task, iis, 1)
        (core,) = [
            root for root in tracer.roots if root.name == "solvability/core"
        ]
        assert [child.name for child in core.children][:1] == ["probe"]


def _reference_facet(inputs, output, solo):
    """The core facet, by the Vertex-level BFS the mask kernel replaced.

    One BFS per input vertex from its solo outputs over the 1-skeleton
    of ``O``'s top-dimensional facets; a facet scores the largest
    distance between two of its vertices' solo sets (unreachable is
    infinite), and ties go to the smaller ``Simplex._sort_key``.
    """
    top = output.dim
    adjacency = one_skeleton_adjacency(
        SimplicialComplex.from_maximal(
            [facet for facet in output.facets if facet.dim == top]
        )
    )
    solo_sets, reach = {}, {}
    for sigma in inputs.facets:
        for vertex in sigma.vertices:
            if vertex in solo_sets:
                continue
            frontier = solo_sets[vertex] = [
                w for w in solo(vertex) if w in adjacency
            ]
            distances = reach[vertex] = dict.fromkeys(adjacency, math.inf)
            for w in frontier:
                distances[w] = 0
            depth = 0
            while frontier:
                depth += 1
                reached = []
                for w in frontier:
                    for neighbour in adjacency[w]:
                        if distances[neighbour] > depth:
                            distances[neighbour] = depth
                            reached.append(neighbour)
                frontier = reached

    def score(sigma):
        return max(
            (
                min([reach[u][w] for w in solo_sets[v]], default=math.inf)
                for u, v in combinations(sigma.vertices, 2)
            ),
            default=0.0,
        )

    scores = {sigma: score(sigma) for sigma in inputs.facets}
    farthest = max(scores.values())
    return min(
        (sigma for sigma, value in scores.items() if value == farthest),
        key=Simplex._sort_key,
    )


def _solo_outside_top_task():
    """Two processes whose solo outputs partly lie off O's top facets.

    ``O`` is a path of edges plus two isolated vertices ``"far"``.
    Process 1 with input 1 may decide only ``"far"`` alone, so its
    facets are unreachable; with input 0 it may also decide 0.
    """
    inputs = binary_consensus_task([1, 2]).input_complex
    path = [
        Simplex([(1, 0), (2, 0)]),
        Simplex([(1, 1), (2, 0)]),
        Simplex([(1, 1), (2, 1)]),
    ]
    output = SimplicialComplex(
        path + [Simplex([(1, "far")]), Simplex([(2, "far")])]
    )
    solos = {
        Vertex(1, 0): [(1, 0), (1, "far")],
        Vertex(1, 1): [(1, "far")],
        Vertex(2, 0): [(2, 0)],
        Vertex(2, 1): [(2, 1), (2, "far")],
    }

    def delta(sigma):
        if len(sigma) == 1:
            return SimplicialComplex(
                Simplex([w]) for w in solos[sigma.vertices[0]]
            )
        return output.proj(sigma.ids)

    return Task("solo-outside-top", inputs, output, delta)


def _ranking_cases():
    aa, liberal = (
        approximate_agreement_task,
        liberal_approximate_agreement_task,
    )
    cases = [
        (f"{label}-n{n}-m{m}",
         lambda build=build, n=n, m=m: build(range(1, n + 1), F(1, m), m),
         None)
        for label, build in (("aa", aa), ("lib", liberal))
        for n, grid in ((2, (1, 2, 3, 5, 9, 28)), (3, (1, 2, 4, 5)),
                        (4, (1, 2, 3)))
        for m in grid
    ]
    cases += [
        # Each maximal simplex with its mixed inputs is unreachable.
        (f"consensus-n{n}", lambda n=n: binary_consensus_task(range(1, n + 1)),
         None)
        for n in (2, 3)
    ]
    cases += [
        ("multivalued-n3",
         lambda: multivalued_consensus_task([1, 2, 3], ["x", "y", "z"]),
         None),
        ("2-set-agreement", lambda: _KSET, None),
        ("2-set-agreement-e17", lambda: _KSET, _e17_simplices()),
        ("partial-faces", lambda: aa([1, 2], F(1, 4), 4),
         [input_simplex({1: F(0), 2: F(1)}),
          input_simplex({1: F(1), 2: F(1)}),
          input_simplex({1: F(0)})]),
        ("solo-outside-top", _solo_outside_top_task, None),
        # The widest pairs of the two facets start at colours 2 and 1:
        # the facet with the smaller colour-1 vertex wins the tie.
        ("ties-across-sources", lambda: aa([1, 2, 3], F(1, 4), 4),
         [input_simplex({1: F(1, 2), 2: F(0), 3: F(1)}),
          input_simplex({1: F(1), 2: F(1), 3: F(0)})]),
        # The refuting boundaries of TestVerifiedRange.
        ("aa-n2-m82", lambda: aa([1, 2], F(1, 82), 82), None),
        ("lib-n3-m9", lambda: liberal([1, 2, 3], F(1, 9), 9), None),
        ("lib-n4-m5", lambda: liberal([1, 2, 3, 4], F(1, 5), 5), None),
    ]
    return cases


class TestCoreRanking:
    """The mask kernel picks the facet the Vertex-level reference picks."""

    @pytest.mark.parametrize(
        "build, simplices",
        [case[1:] for case in _ranking_cases()],
        ids=[case[0] for case in _ranking_cases()],
    )
    def test_same_facet_as_the_reference(self, build, simplices):
        task = build()
        inputs = (
            task.input_complex
            if simplices is None
            else SimplicialComplex(simplices)
        )

        def solo(vertex):
            return task.delta(Simplex([vertex])).vertices

        assert farthest_facet(
            inputs, task.output_complex, solo
        ) == _reference_facet(inputs, task.output_complex, solo)

    def test_unreachable_solo_outputs_rank_first(self):
        task = _solo_outside_top_task()
        facet = farthest_facet(
            task.input_complex,
            task.output_complex,
            lambda vertex: task.delta(Simplex([vertex])).vertices,
        )
        assert facet == input_simplex({1: 1, 2: 0})


def _mixed_consensus_facets(n):
    task = binary_consensus_task(range(1, n + 1))
    return [
        sigma
        for sigma in task.input_complex.simplices_of_dim(n - 1)
        if len({v.value for v in sigma.vertices}) == 2
    ]


def _aa_parity_cases():
    cases = []
    for model in ("iis", "snapshot_model", "collect_model"):
        for t in (1, 2, 3):
            for m in (3**t - 1, 3**t, 3**t + 1):
                cases.append(
                    pytest.param(
                        approximate_agreement_task([1, 2], F(1, m), m),
                        model, t, None,
                        id=f"aa-n2-{model}-t{t}-m{m}",
                        # The full instance at t = 3 takes seconds.
                        marks=(pytest.mark.slow,) if t == 3 else (),
                    )
                )
    return cases


def _consensus_parity_cases():
    tasks = {
        "binary": binary_consensus_task([1, 2]),
        "multivalued": multivalued_consensus_task([1, 2], ["x", "y", "z"]),
    }
    cases = [
        pytest.param(task, model, t, None, id=f"{name}-n2-{model}-t{t}")
        for name, task in tasks.items()
        for model in ("iis_tas", "iis_bc_beta011")
        for t in (0, 1, 2)
    ]
    cases += [
        pytest.param(
            binary_consensus_task(range(1, n + 1)), "iis", t,
            _mixed_consensus_facets(n), id=f"consensus-mixed-n{n}-t{t}",
        )
        for n in (2, 3)
        for t in (0, 1)
    ]
    cases += [
        pytest.param(_KSET, "iis", t, _e17_simplices(), id=f"e17-t{t}")
        for t in (0, 1)
    ]
    return cases


class TestSeriesReduction:
    """The reduced compile decides as the whole instance does."""

    @pytest.mark.parametrize(
        "task, model, rounds, simplices",
        _aa_parity_cases() + _consensus_parity_cases(),
    )
    def test_verdict_equals_the_full_instance(
        self, request, task, model, rounds, simplices
    ):
        # certified_map re-checks every map found on operator.of_simplex.
        model = request.getfixturevalue(model)
        found = certified_map(task, model, rounds, simplices)
        full = _full_instance_solvable(task, model, rounds, simplices)
        assert (found is not None) is full

    def _compiled(self, task, model, rounds, simplices=None):
        simplices = list(
            task.input_complex if simplices is None else simplices
        )
        operator = ProtocolOperator(model)
        reduced = build_solvability_problem(
            simplices, task.delta, operator, rounds, reduce=True
        )
        full = build_solvability_problem(
            simplices, task.delta, operator, rounds
        )
        return reduced, full

    def test_two_process_edges_reduce_to_their_solo_vertices(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 9), 9)
        reduced, _ = self._compiled(task, iis, 2)
        solos = [
            (sigma, vertex)
            for sigma in task.input_complex
            if len(sigma.vertices) == 1
            for vertex in ProtocolOperator(iis).of_simplex(sigma, 2).vertices
        ]
        assert set(reduced.vertices) == {vertex for _, vertex in solos}
        edges = task.input_complex.simplices_of_dim(1)
        binary = [scope for scope in reduced.scopes if len(scope) == 2]
        assert len(binary) == len(edges)
        assert all(len(scope) <= 2 for scope in reduced.scopes)

    def test_three_process_facets_keep_every_vertex(self, iis):
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, 2), 2)
        reduced, full = self._compiled(task, iis, 1)
        assert reduced == full
        assert reduced._expansion is None

    def test_a_path_without_its_ends_folds_to_one_vertex(self, iis):
        # Without the singletons, the solo vertices lie in one piece
        # too: the whole path folds leaf by leaf into one variable.
        task = approximate_agreement_task([1, 2], F(1, 3), 3)
        sigma = input_simplex({1: F(0), 2: F(1)})
        reduced, _ = self._compiled(task, iis, 1, [sigma])
        assert len(reduced.vertices) == 1
        assert reduced.scopes == ()
        decision = certified_map(task, iis, 1, [sigma])
        assert len(decision.assignment) == 4

    def test_one_reduce_span_per_compile(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 3), 3)
        with tracing(clock=ManualClock(tick=0.001)) as tracer:
            assert is_solvable(task, iis, 1)
        reduces = []
        pending = list(tracer.roots)
        while pending:
            span = pending.pop(0)
            if span.name == "solvability/reduce":
                reduces.append(span)
            pending[:0] = span.children
        # The core (one edge and its two vertices), then all of I.
        assert [
            (span.attributes["eliminated"], span.attributes["kept"])
            for span in reduces
        ] == [(2, 2), (2 * 16, 8)]

    def test_the_map_on_keys_is_the_decoded_map(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 9), 9)
        decision = find_decision_map(task, iis, 2)
        by_key = decision.assignment.by_key()
        assert decision.assignment._built is None
        assert {
            decode_vertex(key, 2): output for key, output in by_key.items()
        } == dict(decision.assignment)
        assert Vertex(1, "no such view") not in decision.assignment


class TestRefutingBoundaries:
    """Refuting sides of the verified range, decided on a one-facet core."""

    def test_two_process_iis_twenty_eight_in_three_rounds(self, iis):
        # n = 2: 3^3 < 28.
        task = approximate_agreement_task([1, 2], F(1, 28), 28)
        assert not solvable(task, iis, 3)

    @pytest.mark.parametrize("m", [5, 8])
    def test_three_process_liberal_in_two_rounds(self, iis, m):
        # n = 3: 2^2 < m.
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, m), m)
        assert not solvable(task, iis, 2)


@pytest.mark.slow
class TestVerifiedRange:
    """IIS closed forms at their boundaries, solved without closures.

    The refuting sides of the t = 3 (n = 2) and t = 2 (n = 3) boundaries
    run in tier-1, in :class:`TestRefutingBoundaries`.
    """

    @pytest.mark.parametrize("m, expected", [(27, True)])
    def test_two_process_iis_boundary_at_three_rounds(
        self, iis, m, expected
    ):
        # n = 2: 3^t >= m.
        task = approximate_agreement_task([1, 2], F(1, m), m)
        assert solvable(task, iis, 3) is expected

    def test_two_process_iis_map_at_three_rounds_in_full(self, iis):
        # The map found on the reduced compile, read in full: every
        # vertex of P^(3), eliminated ones too, checked on every σ.
        task = approximate_agreement_task([1, 2], F(1, 27), 27)
        decision = certified_map(task, iis, 3)
        assert decision is not None
        whole = build_solvability_problem(
            list(task.input_complex), task.delta, ProtocolOperator(iis), 3
        )
        assert len(decision.assignment) == len(whole.vertices)

    def test_two_process_iis_solvable_at_four_rounds(self, iis):
        # 3^4 >= 81.  The whole instance does not fit in 2 GB; the
        # reduced one is decided on the solo vertices.  Decoding the
        # whole map would build all 538,084 vertices, so the map is read
        # on keys and only the widest input edge's faces are decoded and
        # checked.
        task = approximate_agreement_task([1, 2], F(1, 81), 81)
        operator = ProtocolOperator(iis)
        decision = find_decision_map(task, iis, 4, operator=operator)
        assert decision is not None
        by_key = decision.assignment.by_key()
        faces = list(input_simplex({1: F(0), 2: F(1)}).faces())

        def protocol_of(sigma):
            return operator.of_simplex(sigma, 4)

        restricted = DecisionMap(
            {
                decode_vertex(key, 4): by_key[key]
                for sigma in faces
                for key in operator.template(sigma, 4).keys(sigma)
            },
            4,
        )
        check_decision_map(faces, task.delta, protocol_of, restricted)

    @pytest.mark.parametrize("m, expected", [(4, True)])
    def test_three_process_liberal_boundary_at_two_rounds(
        self, iis, m, expected
    ):
        # n = 3: the Eq. 3 halving bound 2^t >= m.
        task = liberal_approximate_agreement_task([1, 2, 3], F(1, m), m)
        assert solvable(task, iis, 2) is expected

    def test_two_process_iis_refuted_at_four_rounds(self, iis):
        # 3^4 < 82.
        task = approximate_agreement_task([1, 2], F(1, 82), 82)
        assert not solvable(task, iis, 4)

    @pytest.mark.parametrize(
        "n, rounds, m", [(3, 3, 9), (4, 1, 3), (4, 2, 5)]
    )
    def test_liberal_refuted_one_past_the_halving_bound(
        self, iis, n, rounds, m
    ):
        # 2^t < m = 2^t + 1.
        task = liberal_approximate_agreement_task(
            list(range(1, n + 1)), F(1, m), m
        )
        assert not solvable(task, iis, rounds)
