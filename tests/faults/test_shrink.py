"""Tests for counterexample shrinking (delta-debugging fault traces)."""

from repro.faults.campaign import (
    CampaignConfig,
    replay_trace,
    run_campaign,
)
from repro.faults.injectors import FaultTrace
from repro.faults.oracles import VIOLATION
from repro.faults.shrink import shrink_trace, simplifications, trace_weight
from repro.runtime import TraceRound


def _first_violation(cell, executions=200, t=0):
    report = run_campaign(
        CampaignConfig(cell=cell, executions=executions, seed=0, t=t)
    )
    assert report.violations, f"no violation found in {cell}"
    return report.violations[0]


class TestTraceWeight:
    def test_benign_trace_has_zero_weight(self):
        trace = FaultTrace(
            inputs=((1, "0"), (2, "1")),
            rounds=(TraceRound(blocks=((1, 2),)),),
            cell="aa",
        )
        assert trace_weight(trace) == 0

    def test_adversarial_features_add_weight(self):
        trace = FaultTrace(
            inputs=((1, "0"), (2, "1")),
            rounds=(
                TraceRound(
                    blocks=((1,), (2,)),
                    crashes=(3,),
                    mid_crashes=(4,),
                    box_choice=2,
                ),
            ),
            cell="aa",
        )
        # 1 extra block + 1 crash + 1 mid-crash + box choice 2 = 5.
        assert trace_weight(trace) == 5

    def test_every_simplification_strictly_decreases_weight(self):
        outcome = _first_violation("consensus-broken")
        for candidate in simplifications(outcome.trace):
            assert trace_weight(candidate) < trace_weight(outcome.trace)


class TestShrinking:
    def test_shrunk_consensus_trace_keeps_verdict(self):
        outcome = _first_violation("consensus-broken")
        shrunk = shrink_trace(outcome.trace)
        classification, violation = replay_trace(shrunk)
        assert classification == VIOLATION
        assert violation.property == "agreement"
        assert trace_weight(shrunk) <= trace_weight(outcome.trace)

    def test_shrunk_trace_is_locally_minimal(self):
        outcome = _first_violation("consensus-broken")
        shrunk = shrink_trace(outcome.trace)

        def verdict(trace):
            classification, violation = replay_trace(trace)
            return classification, (
                violation.property if violation else None
            )

        target = verdict(shrunk)
        for candidate in simplifications(shrunk):
            assert verdict(candidate) != target

    def test_shrunk_aa_trace_keeps_verdict(self):
        outcome = _first_violation("aa-broken")
        shrunk = shrink_trace(outcome.trace)
        classification, violation = replay_trace(shrunk)
        assert classification == VIOLATION
        assert violation.property == "epsilon-agreement"

    def test_consensus_counterexample_shrinks_to_split_rounds(self):
        # Corollary 1's separating execution: every round still present
        # in the minimal trace must keep processes apart — a minimal
        # disagreement witness has no weight-free round left to drop.
        outcome = _first_violation("consensus-broken")
        shrunk = shrink_trace(outcome.trace)
        assert trace_weight(shrunk) >= 1
        assert all(
            not entry.is_benign() or entry.blocks == ()
            for entry in shrunk.rounds
        )

    def test_shrink_is_deterministic(self):
        outcome = _first_violation("consensus-broken")
        assert shrink_trace(outcome.trace) == shrink_trace(outcome.trace)

    def test_custom_replay_function(self):
        # With a constant verdict every simplification is accepted, so
        # shrinking drives the trace all the way to weight zero.
        outcome = _first_violation("consensus-broken")
        shrunk = shrink_trace(outcome.trace, replay=lambda trace: ("X", None))
        assert trace_weight(shrunk) == 0
