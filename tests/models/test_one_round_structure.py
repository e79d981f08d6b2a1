"""One-round structure of every model the proof machine runs.

For each model and the input simplex ``σ`` on ``{1..n}``:

* the one-round map ``σ' ↦ P^(1)(σ')`` and the protocol operator ``Ξ``
  (the union of ``P^(1)`` over the faces, Section 2.2) are monotone and
  name-preserving on the faces of ``σ``;
* ``P^(1)(σ)`` is pure of dimension ``|σ|−1``, its colors are exactly
  ``ID(σ)``, and it stores inclusion-maximal facets only;
* every process has a solo execution in ``P^(1)(σ)`` — the hypothesis
  of the speedup theorem (Theorem 1) — and a solo round yields exactly
  the solo vertex: ``P^(1)({v}) = {solo(v)}``.
"""

import pytest

from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    ProtocolOperator,
    SnapshotModel,
    k_concurrency_model,
)
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.topology import CarrierMap, Simplex, SimplicialComplex
from tests.properties import is_maximal, monotonicity_breaks, name_leaks

MODELS = {
    "collect": CollectModel,
    "snapshot": SnapshotModel,
    "iis": ImmediateSnapshotModel,
    "2-concurrency": lambda: k_concurrency_model(ImmediateSnapshotModel(), 2),
    "iis+t&s": lambda: AugmentedModel(TestAndSetBox()),
    "iis+bc": lambda: AugmentedModel(
        BinaryConsensusBox(), beta_input_function({1: 1, 2: 0, 3: 1})
    ),
}

CASES = [
    ("collect", 2),
    ("collect", 3),
    ("snapshot", 2),
    ("snapshot", 3),
    ("iis", 2),
    ("iis", 3),
    ("2-concurrency", 3),
    ("iis+t&s", 2),
    ("iis+t&s", 3),
    ("iis+bc", 3),
]


@pytest.fixture(
    scope="module", params=CASES, ids=[f"{m}-n{n}" for m, n in CASES]
)
def case(request):
    name, n = request.param
    sigma = Simplex((i, f"x{i}") for i in range(1, n + 1))
    return MODELS[name](), sigma


def test_one_round_maps_are_monotone_and_name_preserving(case):
    model, sigma = case
    operator = ProtocolOperator(model)
    faces = SimplicialComplex.from_simplex(sigma)
    for carrier in (
        CarrierMap(faces, model.one_round_complex),
        CarrierMap(faces, lambda face: operator.of_simplex(face, 1)),
    ):
        assert monotonicity_breaks(carrier) == []
        assert name_leaks(carrier) == []


def test_one_round_complex_is_pure_on_the_participants(case):
    model, sigma = case
    complex_ = model.one_round_complex(sigma)
    assert complex_.is_pure()
    assert complex_.dim == sigma.dim
    assert complex_.ids == sigma.ids
    assert is_maximal(complex_)


def test_every_process_has_a_solo_execution(case):
    model, sigma = case
    vertices = model.one_round_complex(sigma).vertices
    for vertex in sigma.vertices:
        assert model.solo_vertex(vertex) in vertices


def test_a_solo_round_yields_the_solo_vertex(case):
    model, sigma = case
    for vertex in sigma.vertices:
        solo = Simplex([model.solo_vertex(vertex)])
        assert model.one_round_complex(
            Simplex([vertex])
        ) == SimplicialComplex.from_simplex(solo)
