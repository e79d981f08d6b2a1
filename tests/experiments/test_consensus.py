"""Fig. 6's simplices, as E6 (Corollary 2) builds them."""

from repro.experiments.consensus import figure6_simplices
from repro.objects import AugmentedModel, TestAndSetBox
from repro.topology import Simplex


class TestFigure6:
    def test_rho_simplices_exist_in_complex(self):
        tau_values = {1: 0, 2: 1, 3: 0}
        rho_ijk, rho_jik = figure6_simplices(tau_values, 1, 2, 3)
        model = AugmentedModel(TestAndSetBox())
        complex_ = model.one_round_complex(
            Simplex(tau_values.items())
        )
        assert rho_ijk in complex_
        assert rho_jik in complex_

    def test_rho_structure(self):
        rho_ijk, rho_jik = figure6_simplices({1: 0, 2: 1, 3: 0}, 1, 2, 3)
        # In ρ_{i,j,k}, process i wins; in ρ_{j,i,k}, process j wins.
        assert rho_ijk.value_of(1)[0] == 1
        assert rho_ijk.value_of(2)[0] == 0
        assert rho_jik.value_of(2)[0] == 1
        assert rho_jik.value_of(1)[0] == 0
        # Both share process k's vertex (sees everything, loses).
        assert rho_ijk.vertex_of(3) == rho_jik.vertex_of(3)
