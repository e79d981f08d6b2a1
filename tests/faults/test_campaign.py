"""Tests for the chaos campaign runner (budgets, isolation, determinism)."""

import hashlib
import json
from fractions import Fraction

import pytest

from repro.errors import ReproError
from repro.faults.campaign import (
    CampaignConfig,
    CELLS,
    _ChaosAdversary,
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
from repro.models.schedules import schedule_from_blocks
from repro.runtime import FullSyncAdversary, RandomAdversary


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

    def test_two_process_cell_bounds_n(self):
        with pytest.raises(ReproError):
            CampaignConfig(cell="aa2", n=3).validate()

    def test_negative_campaign_deadline_rejected(self):
        # It would skip every execution and still report a clean run.
        with pytest.raises(ReproError, match="campaign deadline"):
            CampaignConfig(cell="aa", deadline=-1.0).validate()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"executions": 0}, "at least one execution"),
            ({"n": 1, "t": 0}, "needs n ≥ 2"),
            ({"t": -1}, "crash budget"),
            ({"epsilon": Fraction(0)}, "outside"),
            ({"epsilon": Fraction(3, 2)}, "outside"),
            ({"illegal": "gremlin"}, "unknown illegal mode"),
            # `aa` has no black box for the bad-box injector to corrupt.
            ({"illegal": "bad-box"}, "black box"),
        ],
    )
    def test_out_of_range_field_rejected(self, fields, message):
        with pytest.raises(ReproError, match=message):
            CampaignConfig(cell="aa", **fields).validate()

    @pytest.mark.parametrize("key", sorted(CELLS))
    def test_minimal_config_of_every_cell_validates(self, key):
        spec = CELLS[key]
        n = spec.min_n if spec.max_n is not None else max(spec.min_n, 3)
        CampaignConfig(
            cell=key, model=spec.models[0], n=n, t=min(1, n - 1)
        ).validate()


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
        "mode,cell,model",
        [
            pytest.param("lost-write", "aa", "iis", id="lost-write-aa"),
            pytest.param(
                "stale-snapshot", "aa", "iis", id="stale-snapshot-aa"
            ),
            pytest.param(
                "bad-box", "consensus", "iis", id="bad-box-consensus"
            ),
            ("lost-write", "aa", "snapshot"),
            ("lost-write", "aa", "collect"),
            ("stale-snapshot", "aa", "snapshot"),
            ("stale-snapshot", "aa", "collect"),
        ],
    )
    def test_every_illegal_execution_detected(self, mode, cell, model):
        report = run_campaign(
            CampaignConfig(cell=cell, model=model, executions=25, seed=0,
                           t=0, illegal=mode)
        )
        assert report.counts[HARNESS_FAULT_DETECTED] == 25
        assert report.counts[DECIDED_OK] == 0
        assert report.clean

    @pytest.mark.parametrize("model, t", [("iis", 2), ("snapshot", 1)])
    def test_lost_write_of_a_crashing_writer_is_detected(self, model, t):
        # The writer can crash mid-round before any survivor's snapshot,
        # so no view shows its lost write; the round's write check must.
        report = run_campaign(
            CampaignConfig(cell="aa", model=model, executions=50, seed=0,
                           t=t, illegal="lost-write")
        )
        assert report.counts[HARNESS_FAULT_DETECTED] == 50
        assert report.counts[DECIDED_OK] == 0
        assert report.clean

    def test_undetected_fault_is_not_clean(self):
        # With t = 2 process 1 can crash mid-round in the last block,
        # taking the only view that would have shown its hidden write.
        report = run_campaign(
            CampaignConfig(cell="aa", executions=50, seed=0, t=2,
                           illegal="stale-snapshot")
        )
        assert report.counts[DECIDED_OK] > 0
        assert not report.clean


class TestChaosAdversary:
    SYNC3 = schedule_from_blocks([[1, 2, 3]])

    def test_crash_stream_deterministic_for_a_seed(self):
        def realized(seed):
            adversary = _ChaosAdversary(FullSyncAdversary(), seed, budget=2)
            return [
                adversary.mid_round_crashes(r, self.SYNC3)
                for r in range(1, 20)
            ]

        assert realized(7) == realized(7)

    def test_crash_budget_caps_total_crashes(self):
        adversary = _ChaosAdversary(FullSyncAdversary(), 0, budget=1)
        total = set()
        for round_index in range(1, 100):
            total |= adversary.mid_round_crashes(round_index, self.SYNC3)
        assert len(total) == 1

    def test_someone_always_survives(self):
        adversary = _ChaosAdversary(FullSyncAdversary(), 0, budget=3000)
        sizes = {
            len(adversary.mid_round_crashes(round_index, self.SYNC3))
            for round_index in range(1, 1000)
        }
        # Rounds that lose two of three processes occur, and none more.
        assert max(sizes) == 2

    def test_box_choice_is_always_admissible(self):
        adversary = _ChaosAdversary(RandomAdversary(seed=3), 3, budget=0)
        options = [{1: 0, 2: 1}, {1: 1, 2: 0}]
        for round_index in range(1, 30):
            chosen = adversary.choose_assignment(
                round_index, self.SYNC3, options
            )
            assert chosen in options


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


def _report_digest(config):
    encoded = json.dumps(report_to_json(run_campaign(config)), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


class TestCampaignStreamPins:
    """Byte-level pins of every campaign stream E23 and the ledger use.

    Each digest covers the full JSON report: classifications, witnesses
    and the replayable traces of violations, so a change to any seeded
    stream (schedules, matrix draws, mid-round crashes, box choices) or
    to an algorithm's arithmetic shows here.
    """

    @pytest.mark.parametrize(
        "cell, model, n, t, digest",
        [
            (
                "aa", "iis", 3, 1,
                "3760b80c0c3e00336caf2ea46b521047ea814a8eff6803a83e6bcfad6a5f5f45",
            ),
            (
                "aa", "snapshot", 3, 1,
                "811223b4d37e0bdf73a841d98f85bc678b2dcb825a3eec1fe60b21f00e70ccff",
            ),
            (
                "aa", "collect", 3, 1,
                "6490c97bdf1f1a004a30e741138db837b292172a6fa55ac9d3f8385bfdf88ff6",
            ),
            (
                "aa2", "iis", 2, 1,
                "a1c34b9cfa0721a5d335f36b2922dca468238596019768affca35a6fba6465aa",
            ),
            (
                "consensus", "iis", 3, 1,
                "63754ac22673420acc69f2fa3d5e6c1ce197807683e81fc2778f19c3d3399702",
            ),
            (
                "consensus", "iis", 4, 2,
                "e60da738c3a434ba8a072bc64f85300f9fb7f9a4dca2bae08031224382a45c20",
            ),
        ],
    )
    def test_clean_cell(self, cell, model, n, t, digest):
        config = CampaignConfig(
            cell=cell, model=model, n=n, t=t, executions=100, seed=0
        )
        assert _report_digest(config) == digest

    @pytest.mark.parametrize(
        "cell, digest",
        [
            (
                "aa-broken",
                "443c33363131821b3f8607545fff15fe4e132034b162db9282193622a22a993f",
            ),
            (
                "consensus-broken",
                "598b1e29b8c7631e63357c49adc41afcf091a9f477de2b90fd57d60e92850ca4",
            ),
        ],
    )
    def test_broken_cell(self, cell, digest):
        config = CampaignConfig(
            cell=cell, model="iis", n=3, t=0, executions=300, seed=0
        )
        assert _report_digest(config) == digest

    @pytest.mark.parametrize(
        "mode, cell, digest",
        [
            (
                "lost-write", "aa",
                "27d0dcd62fb55c69d57b1840526da3ce92fcbdd80069cc29fb3b2b23170a3627",
            ),
            (
                "stale-snapshot", "aa",
                "df0442c9bdbd9a7e9292859e29d2974ec0eb78844aa99a0ec3e59322a0d089e8",
            ),
            (
                "bad-box", "consensus",
                "0468cf93e13bce80ff8154015b841abc47d4b7a2d6e1f8f05ce7fc041437d907",
            ),
        ],
    )
    def test_illegal_probe(self, mode, cell, digest):
        config = CampaignConfig(
            cell=cell, model="iis", n=3, t=0, executions=100, seed=0,
            illegal=mode,
        )
        assert _report_digest(config) == digest
