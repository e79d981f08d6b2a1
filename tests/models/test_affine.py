"""Unit tests for affine (facet-restricted) sub-models of IIS."""

import pytest

from repro.errors import ModelError
from repro.models import AffineModel


def drop_synchronous(view_map):
    """Remove the fully synchronous execution (everyone sees everyone)."""
    everyone = frozenset(view_map)
    return not all(view == everyone for view in view_map.values())


def keep_only_synchronous(view_map):
    everyone = frozenset(view_map)
    return all(view == everyone for view in view_map.values())


class TestAffineRestriction:
    def test_restriction_drops_facets(self, iis, triangle):
        affine = AffineModel(iis, drop_synchronous)
        restricted = affine.one_round_complex(triangle)
        full = iis.one_round_complex(triangle)
        assert len(restricted.facets) == len(full.facets) - 1

    def test_solo_preserved_restriction_accepted(self, iis, triangle):
        affine = AffineModel(iis, drop_synchronous)
        assert affine.allows_solo_executions([1, 2, 3])

    def test_solo_killing_restriction_rejected(self, iis):
        affine = AffineModel(iis, keep_only_synchronous)
        with pytest.raises(ModelError):
            affine.schedules(frozenset({1, 2}))

    def test_name_defaults(self, iis):
        assert "affine" in AffineModel(iis, drop_synchronous).name
        assert AffineModel(iis, drop_synchronous, name="custom").name == "custom"

    def test_identity_restriction_equals_base(self, iis, triangle):
        affine = AffineModel(iis, lambda view_map: True)
        assert (
            affine.one_round_complex(triangle).simplices
            == iis.one_round_complex(triangle).simplices
        )

    def test_caching_per_participant_set(self, iis):
        # The restriction keeps members of the base model's shared pool.
        affine = AffineModel(iis, drop_synchronous)
        kept = affine.schedules(frozenset({1, 2}))
        pool = iis.schedules(frozenset({2, 1}))
        assert len(kept) == len(pool) - 1
        assert all(any(s is t for t in pool) for s in kept)
