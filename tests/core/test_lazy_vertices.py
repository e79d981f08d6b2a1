"""A compiled problem ranks its protocol vertices by key, decoding none.

:func:`build_solvability_problem` ranks the protocol vertices by
:func:`~repro.models.protocol.key_sort_key` and hands the problem the
ranked keys; the vertices are decoded on first read.  Propagation,
components and search read only their count, so a refutation decodes
nothing.  :func:`is_solvable` compiles with the series reduction: it
ranks only the kept keys, and the map it finds is built on first read,
so a solvable verdict decodes nothing either.
"""

from fractions import Fraction

import pytest

import repro.core.solvability as solvability
from repro.core.solvability import (
    SolvabilityProblem,
    build_solvability_problem,
    find_decision_map,
    is_solvable,
)
from repro.models import ImmediateSnapshotModel, ProtocolOperator
from repro.tasks import approximate_agreement_task


@pytest.fixture
def decodes(monkeypatch):
    """Count the calls of the solver's ``decode_vertex``."""
    calls = []
    real = solvability.decode_vertex

    def counted(key, rounds, memo=None):
        calls.append(key)
        return real(key, rounds, memo)

    monkeypatch.setattr(solvability, "decode_vertex", counted)
    return calls


@pytest.fixture
def ranked(monkeypatch):
    """The keys the solver's ``key_sort_key`` was called on."""
    calls = []
    real = solvability.key_sort_key

    def counted(key, rounds, memo=None):
        calls.append(key)
        return real(key, rounds, memo)

    monkeypatch.setattr(solvability, "key_sort_key", counted)
    return calls


def _compiled(rounds, m=9):
    # ε-AA with ε = 1/9 needs two IIS rounds for two processes.
    task = approximate_agreement_task([1, 2], Fraction(1, m), m)
    return build_solvability_problem(
        list(task.input_complex),
        task.delta,
        ProtocolOperator(ImmediateSnapshotModel()),
        rounds,
    )


class TestDecodeOnDemand:
    def test_a_refutation_decodes_no_vertex(self, decodes):
        problem = _compiled(rounds=1)
        assert problem.solve() is None
        assert len(problem.vertices) > 0
        assert decodes == []

    def test_the_first_read_decodes_each_vertex_once(self, decodes):
        problem = _compiled(rounds=1)
        first = problem.vertices[0]
        assert len(decodes) == len(problem.vertices)
        assert list(problem.vertices)[0] is first
        assert problem.vertices == tuple(problem.vertices)
        assert len(decodes) == len(problem.vertices)

    def test_copies_share_one_decode(self, decodes):
        problem = _compiled(rounds=2)
        settled = problem.propagated()
        assert settled is not None
        pinned = settled.pinned({0: settled.domains[0]})
        assert pinned is not None
        assert decodes == []
        vertex = settled.vertices[0]
        assert len(decodes) == len(problem.vertices)
        assert problem.vertices[0] is vertex
        assert pinned.vertices[0] is vertex
        assert len(decodes) == len(problem.vertices)

    def test_solving_decodes_for_the_map_only(self, decodes):
        problem = _compiled(rounds=2)
        decision = problem.solve()
        assert decision is not None
        assert len(decodes) == len(problem.vertices)
        assert set(decision.assignment) == set(problem.vertices)


class TestRankOf:
    def test_rank_of_a_key_is_its_vertex_index(self):
        problem = _compiled(rounds=1)
        plain = SolvabilityProblem(
            tuple(problem.vertices),
            problem.outputs,
            problem.domains,
            problem.scopes,
            problem.allowed,
            problem.rounds,
        )
        task = approximate_agreement_task([1, 2], Fraction(1, 9), 9)
        operator = ProtocolOperator(ImmediateSnapshotModel())
        for sigma in task.input_complex:
            for key in operator.template(sigma, 1).keys(sigma):
                rank = problem.rank_of(key)
                vertex = problem.vertices[rank]
                assert vertex == solvability.decode_vertex(key, 1)
                assert plain.rank_of(key) == rank


class TestConstraintSlices:
    def test_a_slice_decodes_the_pairs(self):
        problem = _compiled(rounds=1)
        constraints = problem.constraints
        assert constraints[0:2] == (constraints[0], constraints[1])
        assert constraints[::-1] == tuple(reversed(list(constraints)))
        assert constraints[len(constraints):] == ()


class TestReducedMapOnDemand:
    TASK = approximate_agreement_task([1, 2], Fraction(1, 9), 9)

    def test_a_solvable_verdict_decodes_nothing(self, decodes, ranked):
        assert is_solvable(self.TASK, ImmediateSnapshotModel(), 2)
        assert decodes == []
        # Only the solo vertices are kept: one key per input vertex,
        # each holding one input (the core ranks two of them again).
        assert all(len(inputs) == 1 for _, inputs in ranked)
        assert len(set(ranked)) == len(self.TASK.input_complex.vertices)

    def test_reading_the_map_decodes_each_vertex_once(self, decodes):
        decision = find_decision_map(self.TASK, ImmediateSnapshotModel(), 2)
        assert decodes == []
        assignment = decision.assignment
        assert len(assignment) == len(decodes) == len(set(decodes))
        assert len(assignment) == len(_compiled(rounds=2).vertices)
        assert dict(assignment.items()) == dict(assignment)
        assert len(decodes) == len(assignment)

