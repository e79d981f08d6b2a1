"""Unit tests for the canonical isomorphism χ and the relabeling behind it."""

import pytest

from repro.errors import ChromaticityError
from repro.topology import Simplex, SimplicialComplex, Vertex, View
from repro.topology.isomorphism import (
    canonical_isomorphism,
    relabel_complex,
    relabel_value,
)


def image(chi, complex_):
    """The complex spanned by χ's images of the facets of ``complex_``."""
    return SimplicialComplex(
        Simplex(chi[vertex] for vertex in facet.vertices)
        for facet in complex_.facets
    )


class TestRelabeling:
    def test_relabel_simple_view(self):
        view = View({1: "a", 2: "b"})
        relabeled = relabel_value(view, {1: "x", 2: "y"})
        assert relabeled == View({1: "x", 2: "y"})

    def test_relabel_nested_view(self):
        inner = View({1: "a"})
        outer = View({1: inner, 2: "b"})
        relabeled = relabel_value(outer, {1: "x", 2: "y"})
        assert relabeled == View({1: View({1: "x"}), 2: "y"})

    def test_relabel_box_decorated_value(self):
        value = (1, View({1: "a"}))
        assert relabel_value(value, {1: "x"}) == (1, View({1: "x"}))

    def test_missing_replacement_rejected(self):
        with pytest.raises(ChromaticityError):
            relabel_value(View({1: "a"}), {2: "x"})


class TestCanonicalIsomorphism:
    def test_chi_on_one_round_iis(self, iis):
        sigma = Simplex([(1, "a"), (2, "b")])
        sigma_prime = Simplex([(1, "x"), (2, "y")])
        protocol = iis.one_round_complex(sigma)
        chi = canonical_isomorphism(protocol, sigma, sigma_prime)
        relabeled = iis.one_round_complex(sigma_prime)
        assert relabel_complex(protocol, sigma_prime.as_mapping()) == relabeled
        assert image(chi, protocol) == relabeled
        # Vertex-level: (1, {(1,a)}) ↦ (1, {(1,x)}).
        assert chi[Vertex(1, View({1: "a"}))] == Vertex(1, View({1: "x"}))

    def test_chi_preserves_structure_on_triangle(self, iis, triangle):
        sigma_prime = Simplex([(1, 0), (2, 0), (3, 1)])
        protocol = iis.one_round_complex(triangle)
        chi = canonical_isomorphism(protocol, triangle, sigma_prime)
        # Injective on vertices, and the image keeps every face count.
        assert len(set(chi.values())) == len(protocol.vertices)
        relabeled = relabel_complex(protocol, sigma_prime.as_mapping())
        assert image(chi, protocol) == relabeled
        assert relabeled.f_vector() == protocol.f_vector()

    def test_chi_on_augmented_model(self, iis_tas, triangle):
        sigma_prime = Simplex([(1, "p"), (2, "q"), (3, "r")])
        protocol = iis_tas.one_round_complex(triangle)
        chi = canonical_isomorphism(protocol, triangle, sigma_prime)
        relabeled = iis_tas.one_round_complex(sigma_prime)
        assert relabel_complex(protocol, sigma_prime.as_mapping()) == relabeled
        assert image(chi, protocol) == relabeled

    def test_chi_requires_same_colors(self, iis, triangle):
        protocol = iis.one_round_complex(triangle)
        with pytest.raises(ChromaticityError):
            canonical_isomorphism(protocol, triangle, Simplex([(1, "x")]))

    def test_two_round_relabel(self, iis, edge):
        sigma_prime = Simplex([(1, 0), (2, 1)])
        base = SimplicialComplex.from_simplex(edge)
        two_rounds = iis.protocol_complex(base, 2)
        relabeled = relabel_complex(two_rounds, sigma_prime.as_mapping())
        expected = iis.protocol_complex(
            SimplicialComplex.from_simplex(sigma_prime), 2
        )
        assert relabeled == expected
