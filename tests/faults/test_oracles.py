"""Unit tests for the property oracles (the chaos referees)."""

from fractions import Fraction

import pytest

from repro.errors import RuntimeModelError
from repro.faults.oracles import (
    ApproximateAgreementOracle,
    ConsensusOracle,
    KSetAgreementOracle,
)
from repro.runtime import TraceRound
from repro.runtime.iterated import ExecutionResult


def _result(decisions, trace=()):
    return ExecutionResult(decisions=decisions, trace=list(trace))


class TestConsensusOracle:
    def test_agreeing_valid_decisions_pass(self):
        oracle = ConsensusOracle()
        inputs = {1: "a", 2: "b"}
        assert oracle.check(inputs, _result({1: "a", 2: "a"})) is None

    def test_disagreement_flagged(self):
        oracle = ConsensusOracle()
        violation = oracle.check(
            {1: "a", 2: "b"}, _result({1: "a", 2: "b"})
        )
        assert violation is not None
        assert violation.property == "agreement"

    def test_invalid_value_flagged(self):
        oracle = ConsensusOracle()
        violation = oracle.check(
            {1: "a", 2: "b"}, _result({1: "c", 2: "c"})
        )
        assert violation is not None
        assert violation.property == "validity"

    def test_crashed_processes_need_not_decide(self):
        oracle = ConsensusOracle()
        result = _result(
            {1: "a"}, [TraceRound(blocks=((1,),), crashes=(2,))]
        )
        assert oracle.check({1: "a", 2: "b"}, result) is None

    def test_nobody_decided_is_a_termination_violation(self):
        violation = ConsensusOracle().check({1: "a"}, _result({}))
        assert violation is not None
        assert violation.property == "termination"


class TestApproximateAgreementOracle:
    def test_within_epsilon_passes(self):
        oracle = ApproximateAgreementOracle(Fraction(1, 4))
        inputs = {1: Fraction(0), 2: Fraction(1)}
        decisions = {1: Fraction(1, 2), 2: Fraction(5, 8)}
        assert oracle.check(inputs, _result(decisions)) is None

    def test_excess_spread_flagged(self):
        oracle = ApproximateAgreementOracle(Fraction(1, 4))
        inputs = {1: Fraction(0), 2: Fraction(1)}
        violation = oracle.check(
            inputs, _result({1: Fraction(0), 2: Fraction(1)})
        )
        assert violation is not None
        assert violation.property == "epsilon-agreement"
        assert "spread" in violation.witness

    def test_out_of_range_decision_flagged(self):
        oracle = ApproximateAgreementOracle(Fraction(1, 2))
        inputs = {1: Fraction(0), 2: Fraction(1, 4)}
        violation = oracle.check(
            inputs, _result({1: Fraction(1, 2), 2: Fraction(1, 2)})
        )
        assert violation is not None
        assert violation.property == "range-validity"

    def test_epsilon_must_be_positive(self):
        with pytest.raises(RuntimeModelError):
            ApproximateAgreementOracle(Fraction(0))


class TestKSetAgreementOracle:
    def test_k_distinct_values_pass(self):
        oracle = KSetAgreementOracle(2)
        inputs = {1: "a", 2: "b", 3: "c"}
        assert (
            oracle.check(inputs, _result({1: "a", 2: "b", 3: "b"})) is None
        )

    def test_too_many_values_flagged(self):
        oracle = KSetAgreementOracle(2)
        inputs = {1: "a", 2: "b", 3: "c"}
        violation = oracle.check(
            inputs, _result({1: "a", 2: "b", 3: "c"})
        )
        assert violation is not None
        assert violation.property == "k-agreement"

    def test_invented_value_flagged(self):
        oracle = KSetAgreementOracle(3)
        violation = oracle.check(
            {1: "a", 2: "b"}, _result({1: "a", 2: "z"})
        )
        assert violation is not None
        assert violation.property == "validity"

    def test_k_must_be_positive(self):
        with pytest.raises(RuntimeModelError):
            KSetAgreementOracle(0)
