"""Integration: the upper-bound algorithms meet the lower bounds (E9, E15).

For every instance: (paper's lower bound) == (algorithm's round count),
and the algorithm is actually correct at that round count while failing
(somewhere) with one round fewer — the bounds genuinely bind.
"""

from fractions import Fraction

import pytest

from repro.algorithms import (
    BitwiseAA,
    ConsensusViaBinaryConsensus,
    HalvingAA,
    TwoProcessConsensusTAS,
    TwoProcessThirdsAA,
)
from repro.core import aa_lower_bound_iis, aa_lower_bound_iis_tas, ceil_log
from repro.objects import BinaryConsensusBox
from repro.runtime import (
    IteratedExecutor,
    ReplayAdversary,
    TraceRound,
    all_schedule_sequences,
)


def F(num, den=1):
    return Fraction(num, den)


class TestRoundCountsMatchBounds:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_halving_meets_log2(self, k):
        eps = F(1, 2**k)
        assert HalvingAA(eps).rounds == aa_lower_bound_iis(3, eps) == k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_thirds_meets_log3(self, k):
        eps = F(1, 3**k)
        assert TwoProcessThirdsAA(eps).rounds == aa_lower_bound_iis(2, eps) == k

    def test_tas_consensus_meets_one_round(self):
        assert TwoProcessConsensusTAS.rounds == aa_lower_bound_iis_tas(
            2, F(1, 100)
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_consensus_bc_meets_log_n(self, n):
        assert ConsensusViaBinaryConsensus(n).rounds == max(1, ceil_log(2, n))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bitwise_meets_log2(self, k):
        eps = F(1, 2**k)
        assert BitwiseAA(eps).rounds == ceil_log(2, 1 / eps) == k


class TestBoundsBind:
    def test_halving_with_one_round_fewer_fails_somewhere(self):
        # Run the ε = 1/4 halving algorithm for only 1 round: some
        # schedule must leave two outputs more than ε apart.
        eps = F(1, 4)
        algorithm = HalvingAA(eps, rounds=1)
        inputs = {1: F(0), 2: F(1, 2), 3: F(1)}
        executor = IteratedExecutor()
        violated = False
        for sequence in all_schedule_sequences([1, 2, 3], 1):
            adversary = ReplayAdversary([TraceRound(b) for b in sequence])
            result = executor.run(algorithm, inputs, adversary)
            values = list(result.decisions.values())
            if max(values) - min(values) > eps:
                violated = True
                break
        assert violated

    def test_thirds_with_one_round_fewer_fails_somewhere(self):
        eps = F(1, 9)
        algorithm = TwoProcessThirdsAA(eps, rounds=1)
        inputs = {1: F(0), 2: F(1)}
        executor = IteratedExecutor()
        violated = False
        for sequence in all_schedule_sequences([1, 2], 1):
            adversary = ReplayAdversary([TraceRound(b) for b in sequence])
            result = executor.run(algorithm, inputs, adversary)
            values = list(result.decisions.values())
            if max(values) - min(values) > eps:
                violated = True
        assert violated

    def test_full_round_counts_suffice_end_to_end(self):
        # One sweep asserting the paper's upper-bound table: (model,
        # algorithm, rounds) all at once, under the synchronous schedule
        # and a solo-heavy one.
        cases = [
            (HalvingAA(F(1, 8)), None, {1: F(0), 2: F(1, 2), 3: F(1)}, F(1, 8)),
            (TwoProcessThirdsAA(F(1, 9)), None, {1: F(0), 2: F(1)}, F(1, 9)),
            (
                BitwiseAA(F(1, 8)),
                BinaryConsensusBox(),
                {1: F(0), 2: F(1, 2), 3: F(1)},
                F(1, 8),
            ),
        ]
        for algorithm, box, inputs, eps in cases:
            executor = IteratedExecutor(box=box)
            result = executor.run(algorithm, inputs)
            values = list(result.decisions.values())
            assert max(values) - min(values) <= eps

    def test_consensus_bc_exact_agreement(self):
        executor = IteratedExecutor(box=BinaryConsensusBox())
        algorithm = ConsensusViaBinaryConsensus(5)
        inputs = {i: f"v{i}" for i in range(1, 6)}
        result = executor.run(algorithm, inputs)
        assert len(set(result.decisions.values())) == 1
