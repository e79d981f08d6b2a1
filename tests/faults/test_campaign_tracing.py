"""Campaign tracing: one span per trial, verdict as an attribute."""

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.oracles import DECIDED_OK
from repro.telemetry import ManualClock, tracing


def traced_campaign(config):
    with tracing(clock=ManualClock(tick=0.001)) as tracer:
        report = run_campaign(config)
    return report, tracer


class TestCampaignSpans:
    def test_one_span_per_trial_with_verdict(self):
        config = CampaignConfig(cell="aa", n=3, executions=4, seed=3)
        report, tracer = traced_campaign(config)
        (campaign,) = tracer.roots
        assert campaign.name == "chaos/campaign"
        assert campaign.attributes["cell"] == "aa"
        assert campaign.attributes["executions"] == 4
        assert campaign.attributes["clean"] == report.clean

        trials = [
            child
            for child in campaign.children
            if child.name == "chaos/trial"
        ]
        assert len(trials) == 4
        assert [t.attributes["index"] for t in trials] == [0, 1, 2, 3]
        for trial in trials:
            assert trial.attributes["verdict"] == DECIDED_OK
            assert isinstance(trial.attributes["seed"], int)

    def test_incident_trial_records_incident_verdict(self):
        config = CampaignConfig(
            cell="exploding", n=3, executions=2, seed=0
        )
        report, tracer = traced_campaign(config)
        assert len(report.incidents) == 2
        (campaign,) = tracer.roots
        trials = [
            child
            for child in campaign.children
            if child.name == "chaos/trial"
        ]
        assert len(trials) == 2
        for trial in trials:
            # The raising execution is isolated: the trial span still
            # closes cleanly (no exception escapes the campaign loop)
            # and carries the incident verdict plus the error type.
            assert trial.closed
            assert trial.attributes["verdict"] == "INCIDENT"
            assert trial.attributes["error"]
        assert not campaign.attributes["clean"]

    def test_untraced_campaign_unchanged(self):
        # The same campaign without a tracer must classify identically:
        # the spans are observability, not behavior.
        config = CampaignConfig(cell="aa", n=3, executions=4, seed=3)
        traced_report, _ = traced_campaign(config)
        plain_report = run_campaign(config)
        assert plain_report.counts == traced_report.counts
