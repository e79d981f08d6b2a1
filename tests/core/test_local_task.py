"""Unit tests for local tasks Π_{τ,σ} (Definition 1)."""

from fractions import Fraction

import pytest

from repro.core import local_task
from repro.core.solvability import build_solvability_problem
from repro.errors import TaskSpecificationError
from repro.models import ProtocolOperator
from repro.tasks import approximate_agreement_task, binary_consensus_task
from repro.tasks.inputs import input_simplex
from repro.topology import Simplex
from tests.properties import monotonicity_breaks


def F(num, den=1):
    return Fraction(num, den)


@pytest.fixture
def consensus3():
    return binary_consensus_task([1, 2, 3])


class TestConstruction:
    def test_valid_local_task(self, consensus3):
        sigma = input_simplex({1: 0, 2: 1})
        tau = input_simplex({1: 0, 2: 1})  # a chromatic, non-Δ(σ) set
        task = local_task(consensus3, sigma, tau)
        assert task.input_complex.facets == frozenset({tau})

    def test_id_mismatch_rejected(self, consensus3):
        sigma = input_simplex({1: 0, 2: 1})
        tau = input_simplex({1: 0})
        with pytest.raises(TaskSpecificationError):
            local_task(consensus3, sigma, tau)

    def test_tau_outside_delta_vertices_rejected(self, consensus3):
        sigma = input_simplex({1: 0, 2: 0})  # uniform: Δ(σ) = {all-0}
        tau = input_simplex({1: 0, 2: 1})  # (2,1) is not in V(Δ(σ))
        with pytest.raises(TaskSpecificationError):
            local_task(consensus3, sigma, tau)


class TestSpecification:
    def test_condition1_vertices_pinned(self, consensus3):
        sigma = input_simplex({1: 0, 2: 1})
        tau = input_simplex({1: 0, 2: 1})
        task = local_task(consensus3, sigma, tau)
        vertex_face = Simplex([(1, 0)])
        assert task.delta(vertex_face).facets == frozenset({vertex_face})

    def test_condition2_faces_free_within_projection(self, consensus3):
        sigma = input_simplex({1: 0, 2: 1, 3: 1})
        tau = input_simplex({1: 0, 2: 1, 3: 0})
        task = local_task(consensus3, sigma, tau)
        edge = Simplex([(1, 0), (2, 1)])
        legal = task.delta(edge)
        # proj_{1,2}(Δ(σ)) = both monochromatic edges.
        assert legal.facets == frozenset(
            {input_simplex({1: 0, 2: 0}), input_simplex({1: 1, 2: 1})}
        )

    def test_monotone_but_rigid(self, consensus3):
        # Local tasks are monotone ({v} sits inside every projection), but
        # they are rigid on vertices: Δ_{τ,σ}(v) is a single vertex while
        # the projection of Δ(σ) on v's color has more — this strictness is
        # why the solvability engine must constrain every face of τ.
        sigma = input_simplex({1: 0, 2: 1})
        tau = input_simplex({1: 0, 2: 1})
        task = local_task(consensus3, sigma, tau)
        assert monotonicity_breaks(task.delta_map) == []
        vertex_face = Simplex([(1, 0)])
        pinned = task.delta(vertex_face).vertices
        free = consensus3.delta(sigma).proj({1}).vertices
        assert pinned < free

    def test_full_tau_maps_to_whole_delta(self, consensus3):
        sigma = input_simplex({1: 0, 2: 1, 3: 1})
        tau = input_simplex({1: 0, 2: 1, 3: 0})
        task = local_task(consensus3, sigma, tau)
        assert task.delta(tau).simplices == consensus3.delta(sigma).simplices

    def test_foreign_face_rejected(self, consensus3):
        sigma = input_simplex({1: 0, 2: 1})
        tau = input_simplex({1: 0, 2: 1})
        task = local_task(consensus3, sigma, tau)
        with pytest.raises(TaskSpecificationError):
            task.delta(input_simplex({1: 1}))


class TestSolvability:
    def test_legal_tau_gives_zero_round_local_task(self, consensus3, iis):
        # τ ∈ Δ(σ): each process outputs its input.
        sigma = input_simplex({1: 0, 2: 1})
        tau = input_simplex({1: 0, 2: 0})
        task = local_task(consensus3, sigma, tau)
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(task.input_complex),
            task.delta,
            operator,
            0,
        )
        assert problem.solve() is not None

    def test_disagreeing_tau_unsolvable_for_consensus(self, consensus3, iis):
        # The crux of Corollary 1: the path argument makes Π_{τ,σ}
        # unsolvable in one round when τ mixes decisions.
        sigma = input_simplex({1: 0, 2: 1})
        tau = input_simplex({1: 0, 2: 1})
        task = local_task(consensus3, sigma, tau)
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(task.input_complex),
            task.delta,
            operator,
            1,
        )
        assert problem.solve() is None

    def test_aa_tau_within_3eps_solvable_two_procs(self, iis):
        # Claim 2's Eq. (2) direction: |y1 - y2| ≤ 3ε ⟹ solvable.
        task_aa = approximate_agreement_task([1, 2], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1)})
        tau = input_simplex({1: F(0), 2: F(3, 4)})  # gap 3ε
        local = local_task(task_aa, sigma, tau)
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(local.input_complex),
            local.delta,
            operator,
            1,
        )
        assert problem.solve() is not None

    def test_aa_tau_beyond_3eps_unsolvable_two_procs(self, iis):
        task_aa = approximate_agreement_task([1, 2], F(1, 4), 4)
        sigma = input_simplex({1: F(0), 2: F(1)})
        tau = input_simplex({1: F(0), 2: F(1)})  # gap 4ε > 3ε
        local = local_task(task_aa, sigma, tau)
        operator = ProtocolOperator(iis)
        problem = build_solvability_problem(
            list(local.input_complex),
            local.delta,
            operator,
            1,
        )
        assert problem.solve() is None
