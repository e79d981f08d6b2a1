"""Fault-injection and chaos-testing harness for the operational runtime.

The runtime of :mod:`repro.runtime` claims wait-freedom: algorithms survive
*every* legal adversary (crashes, schedules, adversarial black-box
choices).  This subpackage stress-tests that claim operationally and — just
as importantly — verifies the runtime's *safety nets*: behaviors outside
the model (lost writes, stale snapshots, non-admissible box outputs) must
surface as :class:`~repro.errors.FaultInjectionError`, never be silently
absorbed.  As in the paper, one
:class:`~repro.runtime.adversary.Adversary` fixes each execution: the
campaign's chaos adversary makes every decision, faults included.

* :mod:`repro.faults.injectors` — the replayable
  :class:`~repro.faults.injectors.FaultTrace` and its JSON; its rounds
  replay through :class:`~repro.runtime.adversary.ReplayAdversary`;
* :mod:`repro.faults.oracles` — property oracles (consensus, ε-approximate
  agreement, k-set agreement) and the execution classification lattice;
* :mod:`repro.faults.campaign` — the chaos campaign runner: N randomized
  executions per (algorithm, model, n, t) cell under a seeded chaos
  adversary (mid-round crashes, adversarial box choices, optional
  illegal register or box faults), with budget guards, error isolation,
  and JSON/text reporting;
* :mod:`repro.faults.shrink` — delta-debugging of violating traces down to
  locally minimal counterexamples;
* :mod:`repro.faults.fixtures` — deliberately broken algorithms used to
  prove the harness actually detects violations (ε-AA with too few rounds;
  consensus in plain IIS, impossible by Corollary 1).
"""

from repro.faults.injectors import FaultTrace
from repro.faults.oracles import (
    DECIDED_OK,
    VIOLATION,
    HUNG,
    HARNESS_FAULT_DETECTED,
    PropertyOracle,
    ConsensusOracle,
    ApproximateAgreementOracle,
    KSetAgreementOracle,
    Violation,
)
from repro.faults.campaign import (
    CampaignConfig,
    CampaignIncident,
    CampaignReport,
    ExecutionOutcome,
    CELLS,
    run_campaign,
    replay_trace,
    render_report,
    report_to_json,
)
from repro.faults.shrink import shrink_trace, trace_weight

__all__ = [
    "FaultTrace",
    "DECIDED_OK",
    "VIOLATION",
    "HUNG",
    "HARNESS_FAULT_DETECTED",
    "PropertyOracle",
    "ConsensusOracle",
    "ApproximateAgreementOracle",
    "KSetAgreementOracle",
    "Violation",
    "CampaignConfig",
    "CampaignIncident",
    "CampaignReport",
    "ExecutionOutcome",
    "CELLS",
    "run_campaign",
    "replay_trace",
    "render_report",
    "report_to_json",
    "shrink_trace",
    "trace_weight",
]
