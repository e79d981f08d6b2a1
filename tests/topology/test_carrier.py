"""Unit tests for carrier maps."""

import pytest

from repro.topology import CarrierMap, Simplex, SimplicialComplex


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
    """Name preservation (AUD003) and declared monotonicity (AUD004)."""

    def test_monotone(self, domain, audit):
        carrier = CarrierMap(domain, constant_delta)
        assert audit("carrier", carrier, expect_monotone=True) == set()

    def test_non_monotone_detected(self, domain, audit):
        def delta(sigma):
            if sigma.dim == 0:
                # A vertex maps to something NOT inside the edge images.
                return SimplicialComplex.from_simplex(
                    Simplex([(next(iter(sigma.ids)), "stray")])
                )
            return constant_delta(sigma)

        carrier = CarrierMap(domain, delta)
        assert audit("carrier", carrier, expect_monotone=True) == {"AUD004"}

    def test_chromatic(self, domain, audit):
        carrier = CarrierMap(domain, constant_delta)
        assert audit("carrier", carrier) == set()

    def test_non_chromatic_detected(self, domain, audit):
        def delta(sigma):
            return SimplicialComplex.from_simplex(Simplex([(99, 0)]))

        assert audit("carrier", CarrierMap(domain, delta)) == {"AUD003"}
