"""Integration: operational runtime ⟷ combinatorial models (E16).

Multi-round executions of the iterated executor must correspond to facets
of the combinatorial protocol complex, and algorithm decisions observed
operationally must agree with the symbolically extracted decision map.
"""

from fractions import Fraction


from repro.algorithms import HalvingAA
from repro.models import ProtocolOperator
from repro.runtime import (
    IteratedExecutor,
    ReplayAdversary,
    TraceRound,
    all_schedule_sequences,
    extract_decision_map,
)
from repro.tasks import approximate_agreement_task
from repro.tasks.inputs import input_simplex
from repro.topology import Simplex, Vertex, View


def F(num, den=1):
    return Fraction(num, den)


def nested_views(inputs, sequences):
    """Compute the nested full-information views for a block-schedule run."""
    values = {p: inputs[p] for p in inputs}
    for blocks in sequences:
        views = {}
        prefix = []
        for block in blocks:
            prefix.extend(block)
            snapshot = View((q, values[q]) for q in prefix)
            for p in block:
                views[p] = snapshot
        values = views
    return values


class TestExecutionFacetCorrespondence:
    def test_every_two_round_execution_is_a_protocol_facet(self, iis):
        inputs = {1: F(0), 2: F(1)}
        sigma = input_simplex(inputs)
        operator = ProtocolOperator(iis)
        protocol = operator.of_simplex(sigma, 2)
        for sequence in all_schedule_sequences([1, 2], 2):
            final_views = nested_views(inputs, sequence)
            facet = Simplex(
                Vertex(p, view) for p, view in final_views.items()
            )
            assert facet in protocol

    def test_all_protocol_facets_are_reachable(self, iis):
        inputs = {1: F(0), 2: F(1)}
        sigma = input_simplex(inputs)
        operator = ProtocolOperator(iis)
        protocol = operator.of_simplex(sigma, 2)
        reached = set()
        for sequence in all_schedule_sequences([1, 2], 2):
            final_views = nested_views(inputs, sequence)
            reached.add(
                Simplex(Vertex(p, view) for p, view in final_views.items())
            )
        assert reached == set(protocol.facets)


class TestExecutorVsExtractedMap:
    def test_decisions_agree_everywhere(self, iis):
        eps = F(1, 4)
        task = approximate_agreement_task([1, 2, 3], eps, 4)
        algorithm = HalvingAA(eps)
        inputs = {1: F(0), 2: F(1, 2), 3: F(1)}
        sigma = input_simplex(inputs)
        sub = __import__(
            "repro.topology", fromlist=["SimplicialComplex"]
        ).SimplicialComplex.from_simplex(sigma)
        decision = extract_decision_map(algorithm, iis, sub)
        executor = IteratedExecutor()
        for sequence in all_schedule_sequences([1, 2, 3], algorithm.rounds):
            adversary = ReplayAdversary([TraceRound(b) for b in sequence])
            result = executor.run(algorithm, inputs, adversary)
            final_views = nested_views(inputs, sequence)
            for process, decided in result.decisions.items():
                vertex = Vertex(process, final_views[process])
                assert decision.assignment[vertex].value == decided
