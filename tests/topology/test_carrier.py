"""Unit tests for carrier maps."""

import pytest

from repro.topology import CarrierMap, Simplex, SimplicialComplex
from tests.properties import monotonicity_breaks, name_leaks


@pytest.fixture
def domain(triangle):
    return SimplicialComplex.from_simplex(triangle)


def constant_delta(sigma):
    """A monotone, chromatic toy specification: relabel values to 0."""
    return SimplicialComplex.from_simplex(
        Simplex((i, 0) for i in sorted(sigma.ids))
    )


class TestEvaluation:
    def test_callable_and_memoized(self, domain, triangle):
        calls = []

        def delta(sigma):
            calls.append(sigma)
            return constant_delta(sigma)

        carrier = CarrierMap(domain, delta)
        first = carrier(triangle)
        second = carrier(triangle)
        assert first == second
        assert len(calls) == 1

    def test_mask_key_shares_equal_but_distinct_simplices(self, domain):
        calls = []

        def delta(sigma):
            calls.append(sigma)
            return constant_delta(sigma)

        carrier = CarrierMap(domain, delta)
        first = Simplex([(1, "a"), (2, "b")])
        second = Simplex([(2, "b"), (1, "a")])
        assert first is not second
        assert carrier(first) == carrier(second)
        # Both encode to the same (table_id, mask) key: one evaluation.
        assert len(calls) == 1

    def test_foreign_simplex_falls_back_and_memoizes(self, domain):
        calls = []

        def delta(sigma):
            calls.append(sigma)
            return constant_delta(sigma)

        carrier = CarrierMap(domain, delta)
        # Not a vertex of the domain: bypasses the mask key entirely.
        foreign = Simplex([(1, "elsewhere")])
        assert carrier(foreign) == constant_delta(foreign)
        assert carrier(foreign) == constant_delta(foreign)
        assert len(calls) == 1


class TestStructuralChecks:
    """Name preservation and monotonicity, through the test helpers."""

    def test_monotone(self, domain):
        carrier = CarrierMap(domain, constant_delta)
        assert monotonicity_breaks(carrier) == []

    def test_non_monotone_detected(self, domain):
        def delta(sigma):
            if sigma.dim == 0:
                # A vertex maps to something NOT inside the edge images.
                return SimplicialComplex.from_simplex(
                    Simplex([(next(iter(sigma.ids)), "stray")])
                )
            return constant_delta(sigma)

        carrier = CarrierMap(domain, delta)
        breaks = monotonicity_breaks(carrier)
        # Each vertex breaks against its two edges and the triangle.
        assert len(breaks) == 9
        assert all(face.dim == 0 for face, _ in breaks)

    def test_chromatic(self, domain):
        carrier = CarrierMap(domain, constant_delta)
        assert name_leaks(carrier) == []

    def test_non_chromatic_detected(self, domain):
        def delta(sigma):
            return SimplicialComplex.from_simplex(Simplex([(99, 0)]))

        carrier = CarrierMap(domain, delta)
        assert name_leaks(carrier) == list(domain)

    def test_name_leaks_flags_a_stray_process(self):
        # Every image names process 3, which no simplex of the edge has.
        sigma = Simplex([(1, "a"), (2, "b")])
        domain = SimplicialComplex.from_simplex(sigma)
        leaky = CarrierMap(
            domain,
            lambda s: SimplicialComplex([Simplex([(3, "stray")])]),
            name="leaky",
        )
        assert name_leaks(leaky) == list(domain)

    def test_monotonicity_breaks_flags_vertices_outgrowing_their_edge(self):
        sigma = Simplex([(1, "a"), (2, "b")])
        domain = SimplicialComplex.from_simplex(sigma)

        def delta(simplex):
            if simplex.dim == 1:
                return SimplicialComplex([Simplex([(1, "x")])])
            # Faces get an output the full simplex does not have.
            color = simplex.vertices[0].color
            return SimplicialComplex([Simplex([(color, "y")])])

        shrinking = CarrierMap(domain, delta, name="shrinking")
        breaks = monotonicity_breaks(shrinking)
        assert sorted(face.vertices[0].color for face, _ in breaks) == [1, 2]
        assert all(whole == sigma for _, whole in breaks)
