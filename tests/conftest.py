"""Shared fixtures: models, canonical simplices, and tasks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    SnapshotModel,
)
from repro.objects import AugmentedModel, BinaryConsensusBox, TestAndSetBox
from repro.objects.beta import beta_input_function
from repro.topology import Simplex, SimplicialComplex


@pytest.fixture(scope="session")
def iis():
    return ImmediateSnapshotModel()


@pytest.fixture(scope="session")
def snapshot_model():
    return SnapshotModel()


@pytest.fixture(scope="session")
def collect_model():
    return CollectModel()


@pytest.fixture(scope="session")
def iis_tas():
    return AugmentedModel(TestAndSetBox())


@pytest.fixture(scope="session")
def iis_bc_beta011():
    beta = {1: 0, 2: 1, 3: 1}
    return AugmentedModel(BinaryConsensusBox(), beta_input_function(beta))


@pytest.fixture
def triangle():
    """A 2-dimensional input simplex on processes 1, 2, 3."""
    return Simplex([(1, "a"), (2, "b"), (3, "c")])


@pytest.fixture
def edge():
    """A 1-dimensional input simplex on processes 1, 2."""
    return Simplex([(1, "a"), (2, "b")])


@pytest.fixture
def triangle_complex(triangle):
    return SimplicialComplex.from_simplex(triangle)


@pytest.fixture
def quarter():
    return Fraction(1, 4)
