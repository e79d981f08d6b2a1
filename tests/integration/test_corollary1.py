"""Integration: Corollary 1 — consensus is wait-free unsolvable (E3).

The paper's pipeline, end to end: (i) the closure of binary consensus
w.r.t. wait-free IIS is binary consensus itself; (ii) consensus is not
0-round solvable; (iii) by Lemma 1 it is unsolvable in any number of
rounds.  We additionally re-walk the path argument of the proof on the
one-round complex.
"""

import pytest

from repro.core import (
    ClosureComputer,
    impossibility_from_fixed_point,
    is_solvable,
    iterated_closure_lower_bound,
)
from repro.tasks import binary_consensus_task
from repro.tasks.inputs import input_simplex
from repro.topology import SimplicialComplex, Vertex, View
from repro.topology.connectivity import is_connected


class TestCorollary1:
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_pipeline(self, iis, n):
        task = binary_consensus_task(list(range(1, n + 1)))
        mixed = [
            sigma
            for sigma in task.input_complex
            if len({v.value for v in sigma.vertices}) > 1 or sigma.dim == 0
        ]
        report = impossibility_from_fixed_point(
            task, iis, input_simplices=mixed
        )
        assert report.fixed_point
        assert not report.zero_round_solvable
        assert report.unsolvable

    def test_no_algorithm_for_any_small_round_count(self, iis):
        # The direct corollary, checked by brute force for t ∈ {0, 1, 2}.
        task = binary_consensus_task([1, 2])
        for rounds in (0, 1, 2):
            assert not is_solvable(task, iis, rounds)

    def test_closure_iteration_never_terminates(self, iis):
        task = binary_consensus_task([1, 2])
        # A fixed point pushes the generic engine to its cap.
        assert iterated_closure_lower_bound(task, iis, max_rounds=4) == 4

    def test_path_argument(self, iis):
        # The proof of Corollary 1 walks the 3-edge path between the two
        # solo vertices of P^(1)(τ); its existence is what forces equal
        # outputs.  τ = {(1, 0), (2, 1)}.  A connected complex of 4
        # vertices and 3 edges whose two solo vertices lie in one edge
        # each, and the other two vertices in two, is that path.
        tau = input_simplex({1: 0, 2: 1})
        complex_ = iis.protocol_complex(SimplicialComplex.from_simplex(tau))
        solos = {Vertex(1, View({1: 0})), Vertex(2, View({2: 1}))}
        assert len(complex_.vertices) == 4
        assert len(complex_.facets) == 3
        assert all(facet.dim == 1 for facet in complex_.facets)
        assert is_connected(complex_)
        for vertex in complex_.vertices:
            edges = sum(vertex in facet for facet in complex_.facets)
            assert edges == (1 if vertex in solos else 2)

    def test_uniform_inputs_remain_forced_in_closure(self, iis):
        task = binary_consensus_task([1, 2])
        computer = ClosureComputer(task, iis)
        sigma = input_simplex({1: 1, 2: 1})
        assert computer.legal_outputs(sigma) == [input_simplex({1: 1, 2: 1})]
