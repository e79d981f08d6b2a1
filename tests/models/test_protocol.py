"""Unit tests for the memoized protocol operator Ξ."""

from fractions import Fraction

import pytest

from repro.errors import ModelError
from repro.models import (
    CollectModel,
    ImmediateSnapshotModel,
    ProtocolOperator,
    SnapshotModel,
    k_concurrency_model,
)
from repro.models.protocol import decode_vertex, key_sort_key
from repro.objects import AugmentedModel, BinaryConsensusBox, TestAndSetBox
from repro.tasks import approximate_agreement_task, binary_consensus_task
from repro.tasks.inputs import input_simplex
from repro.topology import Simplex, SimplicialComplex


@pytest.fixture
def operator(iis):
    return ProtocolOperator(iis)


class TestOfSimplex:
    def test_zero_rounds(self, operator, triangle):
        assert operator.of_simplex(triangle, 0) == SimplicialComplex.from_simplex(
            triangle
        )

    def test_one_round_matches_model(self, operator, iis, triangle):
        # Ξ over σ̄ = the full subdivided simplex (faces included).
        expected = iis.protocol_complex(
            SimplicialComplex.from_simplex(triangle)
        )
        assert operator.of_simplex(triangle, 1) == expected

    def test_memoization(self, operator, triangle):
        assert operator.of_simplex(triangle, 2) is operator.of_simplex(
            triangle, 2
        )

    def test_face_protocol_contained_in_facet_protocol(
        self, operator, triangle
    ):
        face = triangle.proj([1, 2])
        face_protocol = operator.of_simplex(face, 1)
        full_protocol = operator.of_simplex(triangle, 1)
        assert face_protocol.simplices <= full_protocol.simplices


class TestNegativeRounds:
    def test_of_simplex_raises_model_error(self, triangle):
        with pytest.raises(ModelError):
            ProtocolOperator(ImmediateSnapshotModel()).of_simplex(
                triangle, -1
            )


def _decoded(operator, sigma, rounds):
    keys = operator.template(sigma, rounds).keys(sigma)
    return [decode_vertex(key, rounds) for key in keys]


class TestTemplate:
    @pytest.mark.parametrize("rounds", [0, 1, 2])
    def test_relabelled_template_is_the_protocol_complex(
        self, iis, iis_tas, rounds
    ):
        # The canonical isomorphism χ of Eq. (1): the template expanded
        # from ``first`` and relabelled with ``other``'s inputs is
        # P^(t)(other), also for IIS+t&s's (box output, View) values.
        first = input_simplex({1: "a", 2: "b", 3: "c"})
        other = input_simplex({1: "c", 2: "c", 3: 0})
        for model in (iis, iis_tas):
            operator = ProtocolOperator(model)
            template = operator.template(first, rounds)
            assert operator.template(other, rounds) is template
            vertices = _decoded(operator, other, rounds)
            protocol = operator.of_simplex(other, rounds)
            assert set(vertices) == protocol.vertices
            assert {
                Simplex(vertices[k] for k in facet)
                for facet in template.facets
            } == protocol.facets

    def test_one_template_per_shape_key(self, operator):
        first = operator.template(input_simplex({1: 0, 2: 1}), 1)
        second = operator.template(input_simplex({1: 5, 2: 5}), 1)
        third = operator.template(input_simplex({2: 5, 3: 5}), 1)
        assert second is first
        assert third is not first

    def test_shared_vertex_has_one_key(self, operator):
        # The solo view of process 1 lies in P^(1) of {1} and of {1, 2}.
        solo = input_simplex({1: 0})
        pair = input_simplex({1: 0, 2: 1})
        (solo_key,) = operator.template(solo, 1).keys(solo)
        assert solo_key in operator.template(pair, 1).keys(pair)

    def test_augmented_shape_key(self):
        def alpha(vertex):
            return int(vertex.value >= 1)

        model = AugmentedModel(BinaryConsensusBox(), alpha)
        sigma = input_simplex({1: 0, 2: 1})
        assert model.shape_key(sigma, 1) == (sigma.ids, (0, 1))
        # Later rounds feed α protocol vertices: no sharing.
        assert model.shape_key(sigma, 2) == sigma
        ignores = AugmentedModel(TestAndSetBox())
        assert ignores.shape_key(sigma, 2) == (sigma.ids, (None, None))

    def test_unshared_template_keeps_its_vertices(self):
        def alpha(vertex):
            # Inputs in round one, (box output, view) pairs after it.
            if isinstance(vertex.value, tuple):
                return int(sum(vertex.value[1].values()) >= 1)
            return int(vertex.value >= 1)

        operator = ProtocolOperator(
            AugmentedModel(BinaryConsensusBox(), alpha)
        )
        sigma = input_simplex({1: 0, 2: 1})
        template = operator.template(sigma, 2)
        assert set(template.shapes) == operator.of_simplex(sigma, 2).vertices
        assert set(template.carriers) == {()}


def _value_reading_alpha(vertex):
    # As in tests/core/test_template_compile.py: inputs in round one,
    # (box output, view) pairs after it.
    if isinstance(vertex.value, tuple):
        return int(sum(vertex.value[1].values()) >= 1)
    return int(vertex.value >= Fraction(1, 2))


#: (label, model factory, task factory): two-process ε-AA on the grid
#: m = 2, and binary consensus for three processes.
_KEYED_CASES = [
    ("IIS", ImmediateSnapshotModel, 2),
    ("snapshot", SnapshotModel, 2),
    ("collect", CollectModel, 2),
    (
        "1-concurrency",
        lambda: k_concurrency_model(ImmediateSnapshotModel(), 1),
        3,
    ),
    ("IIS+t&s", lambda: AugmentedModel(TestAndSetBox()), 2),
    (
        "IIS+bc value-reading α",
        lambda: AugmentedModel(BinaryConsensusBox(), _value_reading_alpha),
        2,
    ),
]


class TestKeySortKey:
    """The sort key of a key is the sort key of the vertex it names."""

    @pytest.mark.parametrize("rounds", [0, 1, 2])
    @pytest.mark.parametrize(
        "model, processes",
        [pytest.param(*case[1:], id=case[0]) for case in _KEYED_CASES],
    )
    def test_matches_the_decoded_vertex(self, model, processes, rounds):
        operator = ProtocolOperator(model())
        if processes == 2:
            task = approximate_agreement_task([1, 2], Fraction(1, 2), 2)
        else:
            task = binary_consensus_task([1, 2, 3])
        simplices = list(task.input_complex)
        if processes == 3 and rounds == 2:
            # One triangle and its faces keep P^(2) small.
            facet = min(task.input_complex.facets, key=Simplex._sort_key)
            simplices = list(facet.faces())
        memo: dict = {}
        checked = 0
        for sigma in simplices:
            for key in operator.template(sigma, rounds).keys(sigma):
                expected = decode_vertex(key, rounds)._sort_key()
                assert key_sort_key(key, rounds) == expected
                # A memo shared across keys changes nothing.
                assert key_sort_key(key, rounds, memo) == expected
                checked += 1
        assert checked

    @pytest.mark.parametrize("rounds", [0, 2])
    def test_sigma_keyed_templates_are_covered(self, rounds):
        # The value-reading α keys rounds 0 and 2 by σ itself: every
        # key has an empty carrier and is its own vertex.
        operator = ProtocolOperator(
            AugmentedModel(BinaryConsensusBox(), _value_reading_alpha)
        )
        sigma = input_simplex({1: Fraction(0), 2: Fraction(1, 2)})
        keys = operator.template(sigma, rounds).keys(sigma)
        assert keys and all(not inputs for _, inputs in keys)
        for key in keys:
            assert key_sort_key(key, rounds) == key[0]._sort_key()
