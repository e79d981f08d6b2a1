"""Unit tests for the lower-bound engines and closed forms."""

from fractions import Fraction

import pytest

from repro.core import (
    aa_lower_bound_iis,
    aa_lower_bound_iis_bc,
    aa_lower_bound_iis_tas,
    ceil_log,
    iterated_closure_lower_bound,
)
from repro.errors import SolvabilityError
from repro.tasks import approximate_agreement_task, binary_consensus_task


def F(num, den=1):
    return Fraction(num, den)


class TestCeilLog:
    @pytest.mark.parametrize(
        "base, value, expected",
        [
            (2, 1, 0),
            (2, 2, 1),
            (2, 3, 2),
            (2, 4, 2),
            (2, 5, 3),
            (3, 3, 1),
            (3, 4, 2),
            (3, 9, 2),
            (3, 10, 3),
            (2, F(1, 2), 0),
        ],
    )
    def test_values(self, base, value, expected):
        assert ceil_log(base, value) == expected

    def test_exact_rational_handling(self):
        # 2^10 = 1024 ≥ 1000, 2^9 = 512 < 1000.
        assert ceil_log(2, 1000) == 10
        assert ceil_log(2, F(1023)) == 10
        assert ceil_log(2, 1024) == 10
        assert ceil_log(2, 1025) == 11

    def test_invalid_base(self):
        with pytest.raises(SolvabilityError):
            ceil_log(1, 4)


class TestClosedForms:
    @pytest.mark.parametrize(
        "eps, expected", [(F(1, 2), 1), (F(1, 3), 1), (F(1, 4), 2), (F(1, 9), 2), (F(1, 10), 3)]
    )
    def test_two_process_iis(self, eps, expected):
        assert aa_lower_bound_iis(2, eps) == expected

    @pytest.mark.parametrize(
        "eps, expected", [(F(1, 2), 1), (F(1, 4), 2), (F(1, 8), 3), (F(1, 5), 3)]
    )
    def test_three_process_iis(self, eps, expected):
        assert aa_lower_bound_iis(3, eps) == expected
        assert aa_lower_bound_iis(7, eps) == expected  # n ≥ 3 uniform

    def test_crossover_two_vs_three(self):
        # The paper's crossover: base 3 for n = 2, base 2 for n ≥ 3.
        eps = F(1, 9)
        assert aa_lower_bound_iis(2, eps) == 2
        assert aa_lower_bound_iis(3, eps) == 4

    def test_tas_does_not_help_n_ge_3(self):
        # Theorem 3: identical bound with or without test&set.
        for eps in (F(1, 2), F(1, 4), F(1, 8), F(1, 16)):
            assert aa_lower_bound_iis_tas(3, eps) == aa_lower_bound_iis(3, eps)

    def test_tas_helps_two_processes(self):
        # n = 2: one round suffices with test&set, regardless of ε.
        assert aa_lower_bound_iis_tas(2, F(1, 1024)) == 1
        assert aa_lower_bound_iis(2, F(1, 1024)) == 7

    @pytest.mark.parametrize(
        "n, eps, expected",
        [
            (3, F(1, 4), 1),  # min(2, ⌈log₂3⌉-1 = 1)
            (4, F(1, 4), 1),  # min(2, 1)
            (8, F(1, 4), 2),  # min(2, 2)
            (16, F(1, 4), 2),  # min(2, 3)
            (16, F(1, 64), 3),  # min(6, 3)
            (1024, F(1, 4), 2),  # ε side binds
        ],
    )
    def test_binary_consensus_bound(self, n, eps, expected):
        assert aa_lower_bound_iis_bc(n, eps) == expected

    def test_bc_bound_requires_three_processes(self):
        with pytest.raises(SolvabilityError):
            aa_lower_bound_iis_bc(2, F(1, 2))

    def test_invalid_n(self):
        with pytest.raises(SolvabilityError):
            aa_lower_bound_iis(1, F(1, 2))

    @pytest.mark.parametrize("eps", [F(-1, 8), 0, "0"])
    def test_iis_rejects_non_positive_eps(self, eps):
        for n in (2, 3):
            with pytest.raises(SolvabilityError, match="ε > 0"):
                aa_lower_bound_iis(n, eps)

    @pytest.mark.parametrize("eps", [F(-1, 8), 0])
    def test_tas_rejects_non_positive_eps(self, eps):
        for n in (2, 3):
            with pytest.raises(SolvabilityError, match="ε > 0"):
                aa_lower_bound_iis_tas(n, eps)

    @pytest.mark.parametrize("eps", [F(-1, 8), 0])
    def test_bc_rejects_non_positive_eps(self, eps):
        with pytest.raises(SolvabilityError, match="ε > 0"):
            aa_lower_bound_iis_bc(3, eps)


class TestGenericIteration:
    def test_zero_for_trivial_task(self, iis):
        task = approximate_agreement_task([1, 2], 1, 1)
        assert iterated_closure_lower_bound(task, iis, max_rounds=3) == 0

    def test_one_round_needed_for_half_aa(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 2), 2)
        assert iterated_closure_lower_bound(task, iis, max_rounds=3) == 1

    def test_consensus_hits_the_cap(self, iis):
        # Consensus is a fixed point: the iteration never bottoms out.
        task = binary_consensus_task([1, 2])
        assert iterated_closure_lower_bound(task, iis, max_rounds=3) == 3

    def test_quarter_aa_needs_two_rounds_generic(self, iis):
        task = approximate_agreement_task([1, 2], F(1, 4), 4)
        assert iterated_closure_lower_bound(task, iis, max_rounds=4) == 2
