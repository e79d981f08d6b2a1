"""Integration: Corollary 2 — consensus is unsolvable for n > 2 even with
test&set (E6), while it IS solvable for n = 2 (Fig. 4).
"""


from repro.core import (
    ClosureComputer,
    impossibility_from_fixed_point,
    is_solvable,
)
from repro.experiments.consensus import figure6_simplices
from repro.tasks import binary_consensus_task, relaxed_consensus_task
from repro.tasks.inputs import input_simplex
from repro.topology import Simplex


class TestTwoProcessesSolvable:
    def test_consensus_solvable_one_round(self, iis_tas):
        assert is_solvable(binary_consensus_task([1, 2]), iis_tas, 1)

    def test_but_not_zero_rounds(self, iis_tas):
        # The box is not used in a 0-round algorithm.
        assert not is_solvable(binary_consensus_task([1, 2]), iis_tas, 0)


class TestThreeProcessesImpossible:
    def test_relaxed_consensus_is_fixed_point(self, iis_tas):
        task = relaxed_consensus_task([1, 2, 3])
        report = impossibility_from_fixed_point(task, iis_tas)
        assert report.fixed_point
        assert report.unsolvable

    def test_consensus_itself_not_fixed_point_but_relaxation_suffices(
        self, iis_tas
    ):
        # The paper's subtlety: plain consensus is NOT a fixed point (its
        # 2-process faces are solvable with test&set) — which is exactly
        # why the relaxed task is introduced.
        strict = binary_consensus_task([1, 2, 3])
        computer = ClosureComputer(strict, iis_tas)
        edge = input_simplex({1: 0, 2: 1})
        extra = set(computer.legal_outputs(edge)) - set(
            strict.delta(edge).facets
        )
        assert extra  # closure strictly bigger on edges

    def test_relaxed_closure_rejects_three_way_disagreement(self, iis_tas):
        task = relaxed_consensus_task([1, 2, 3])
        computer = ClosureComputer(task, iis_tas)
        sigma = input_simplex({1: 0, 2: 1, 3: 1})
        assert not computer.contains(sigma, input_simplex({1: 0, 2: 1, 3: 1}))
        assert not computer.contains(sigma, input_simplex({1: 1, 2: 1, 3: 0}))

    def test_rho_simplices_drive_the_argument(self, iis_tas):
        # The proof inspects ρ_{i,j,k} and ρ_{j,i,k}; both must exist in
        # the one-round complex over τ for the argument to bind outputs.
        tau_values = {1: 0, 2: 1, 3: 1}
        rho_ijk, rho_jik = figure6_simplices(tau_values, 1, 2, 3)
        complex_ = iis_tas.one_round_complex(Simplex(tau_values.items()))
        assert rho_ijk in complex_
        assert rho_jik in complex_

    def test_brute_force_unsolvability_small_rounds(self, iis_tas):
        task = binary_consensus_task([1, 2, 3])
        assert not is_solvable(task, iis_tas, 0)
        assert not is_solvable(task, iis_tas, 1)
