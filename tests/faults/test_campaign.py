"""Tests for the chaos campaign runner (budgets, isolation, determinism)."""

from fractions import Fraction

import pytest

from repro.errors import ReproError
from repro.faults.campaign import (
    CampaignConfig,
    CELLS,
    derive_seed,
    replay_trace,
    report_to_json,
    render_report,
    run_campaign,
)
from repro.faults.oracles import (
    DECIDED_OK,
    HARNESS_FAULT_DETECTED,
    HUNG,
    VIOLATION,
)


class TestConfigValidation:
    def test_unknown_cell_rejected(self):
        with pytest.raises(ReproError):
            run_campaign(CampaignConfig(cell="nonsense"))

    def test_unsupported_model_rejected(self):
        # Black-box cells need temporal blocks, so consensus is IIS-only.
        with pytest.raises(ReproError):
            CampaignConfig(cell="consensus", model="snapshot").validate()

    def test_t_must_leave_a_survivor(self):
        with pytest.raises(ReproError):
            CampaignConfig(cell="aa", n=3, t=3).validate()

    def test_illegal_requires_allow_flag(self):
        with pytest.raises(ReproError):
            CampaignConfig(cell="aa", illegal="lost-write").validate()

    def test_two_process_cell_bounds_n(self):
        with pytest.raises(ReproError):
            CampaignConfig(cell="aa2", n=3).validate()

    def test_negative_campaign_deadline_rejected(self):
        # It would skip every execution and still report a clean run.
        with pytest.raises(ReproError, match="campaign deadline"):
            CampaignConfig(cell="aa", deadline=-1.0).validate()

    def test_non_positive_execution_deadline_rejected(self):
        with pytest.raises(ReproError, match="per-execution deadline"):
            CampaignConfig(cell="aa", exec_deadline=0.0).validate()

    def test_step_budget_below_one_rejected(self):
        with pytest.raises(ReproError, match="step budget"):
            CampaignConfig(cell="aa", step_budget=0).validate()


class TestCleanCampaigns:
    def test_aa_iis_all_decide_ok(self):
        report = run_campaign(
            CampaignConfig(cell="aa", model="iis", n=3, t=1,
                           executions=150, seed=0)
        )
        assert report.counts[DECIDED_OK] == 150
        assert report.clean
        assert not report.incidents

    def test_consensus_with_box_all_decide_ok(self):
        report = run_campaign(
            CampaignConfig(cell="consensus", model="iis", n=3, t=1,
                           executions=100, seed=0)
        )
        assert report.counts[DECIDED_OK] == 100
        assert report.clean

    @pytest.mark.parametrize("model", ["snapshot", "collect"])
    def test_matrix_models_supported(self, model):
        report = run_campaign(
            CampaignConfig(cell="aa", model=model, n=3, t=1,
                           executions=60, seed=0)
        )
        assert report.counts[DECIDED_OK] == 60

    def test_campaign_is_deterministic(self):
        config = CampaignConfig(cell="aa", model="iis", n=3, t=1,
                                executions=80, seed=5)
        first = report_to_json(run_campaign(config))
        second = report_to_json(run_campaign(config))
        assert first == second

    def test_different_seeds_differ(self):
        # Not a property we *need*, but seeds failing to thread through
        # would silently collapse the campaign onto one execution.
        def inputs_of(seed):
            report = run_campaign(
                CampaignConfig(cell="aa-broken", executions=60, seed=seed,
                               t=0)
            )
            return tuple(
                outcome.index for outcome in report.violations
            )

        assert inputs_of(0) != inputs_of(1) or derive_seed(
            0, 0
        ) != derive_seed(1, 0)


class TestBrokenFixtures:
    def test_short_aa_violates_epsilon(self):
        report = run_campaign(
            CampaignConfig(cell="aa-broken", executions=200, seed=0, t=0)
        )
        assert report.counts[VIOLATION] > 0
        first = report.violations[0]
        assert first.property == "epsilon-agreement"
        assert first.trace is not None

    def test_iis_consensus_violates_agreement(self):
        # Corollary 1: consensus is impossible in plain IIS, so random
        # schedules must expose disagreement.
        report = run_campaign(
            CampaignConfig(cell="consensus-broken", executions=200,
                           seed=0, t=0)
        )
        assert report.counts[VIOLATION] > 0
        assert report.violations[0].property == "agreement"

    def test_violation_trace_replays_to_same_verdict(self):
        report = run_campaign(
            CampaignConfig(cell="consensus-broken", executions=200,
                           seed=0, t=0)
        )
        trace = report.violations[0].trace
        classification, violation = replay_trace(trace)
        assert classification == VIOLATION
        assert violation.property == "agreement"

    def test_stubborn_algorithm_classified_hung(self):
        report = run_campaign(
            CampaignConfig(cell="hang", executions=3, seed=0, t=0)
        )
        assert report.counts[HUNG] == 3
        assert not report.clean


class TestErrorIsolation:
    def test_raising_execution_becomes_incident(self):
        report = run_campaign(
            CampaignConfig(cell="exploding", executions=5, seed=0, t=0)
        )
        # Every execution raised, yet the campaign finished all five.
        assert len(report.incidents) == 5
        assert report.counts[DECIDED_OK] == 0
        assert all(i.error == "ValueError" for i in report.incidents)
        assert not report.clean

    def test_campaign_deadline_skips_remaining(self):
        report = run_campaign(
            CampaignConfig(cell="aa", executions=10_000, seed=0, t=0,
                           deadline=0.0)
        )
        assert report.skipped > 0
        total = sum(report.counts.values())
        assert total + report.skipped == 10_000


class TestIllegalDetection:
    @pytest.mark.parametrize(
        "mode,cell",
        [
            ("lost-write", "aa"),
            ("stale-snapshot", "aa"),
            ("bad-box", "consensus"),
        ],
    )
    def test_every_illegal_execution_detected(self, mode, cell):
        report = run_campaign(
            CampaignConfig(cell=cell, executions=25, seed=0, t=0,
                           illegal=mode, allow_illegal=True)
        )
        assert report.counts[HARNESS_FAULT_DETECTED] == 25
        assert report.counts[DECIDED_OK] == 0


class TestReporting:
    def test_json_report_is_deterministic_shape(self):
        report = run_campaign(
            CampaignConfig(cell="aa", executions=20, seed=0)
        )
        data = report_to_json(report)
        assert data["counts"][DECIDED_OK] == 20
        assert "elapsed" not in data
        assert "peak_rss_kb" not in data

    def test_text_report_mentions_counts(self):
        report = run_campaign(
            CampaignConfig(cell="consensus-broken", executions=100,
                           seed=0, t=0)
        )
        text = render_report(report)
        assert "chaos campaign" in text
        assert "violation @ execution" in text


class TestCellCatalog:
    def test_broken_cells_marked(self):
        for key in ("aa-broken", "consensus-broken", "hang", "exploding"):
            assert CELLS[key].broken
        for key in ("aa", "aa2", "consensus"):
            assert not CELLS[key].broken
