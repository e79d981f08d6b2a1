"""Experiment E23 — the chaos harness validates itself.

Three claims, all checked operationally:

1. **Correct algorithms stay clean.**  Seeded chaos campaigns over the
   operational upper-bound algorithms (halving ε-AA in IIS/snapshot/
   collect, two-process thirds ε-AA, consensus from the binary-consensus
   box) with mid-round crash injection classify every execution
   ``DECIDED_OK`` — wait-freedom holds under the harness's adversaries.
2. **Broken algorithms are caught and minimized.**  The deliberately
   broken fixtures (ε-AA one round short — Claim 3's invariant does not
   hold; consensus in plain IIS — impossible by Corollary 1) yield
   violations, and delta-debugging shrinks the first counterexample to a
   locally minimal trace replaying to the same verdict.
3. **Illegal faults never pass silently.**  Lost writes, stale
   snapshots, and non-admissible box assignments are all flagged by the
   executors as ``HARNESS_FAULT_DETECTED`` on every single execution.
"""

from __future__ import annotations

from typing import Any

from repro.faults.campaign import (
    CampaignConfig,
    replay_trace,
    run_campaign,
)
from repro.faults.oracles import (
    DECIDED_OK,
    HARNESS_FAULT_DETECTED,
    HUNG,
    VIOLATION,
)
from repro.faults.shrink import shrink_trace, trace_weight

__all__ = ["reproduce_chaos_harness"]

#: The clean-campaign matrix: (cell, model, n, t).
_CLEAN_CELLS = (
    ("aa", "iis", 3, 1),
    ("aa", "snapshot", 3, 1),
    ("aa", "collect", 3, 1),
    ("aa2", "iis", 2, 1),
    ("consensus", "iis", 3, 1),
    ("consensus", "iis", 4, 2),
)

#: Broken fixtures that the harness must catch.
_BROKEN_CELLS = ("aa-broken", "consensus-broken")

#: (illegal mode, carrier cell) pairs; every execution must be detected.
_ILLEGAL_PROBES = (
    ("lost-write", "aa"),
    ("stale-snapshot", "aa"),
    ("bad-box", "consensus"),
)

_EXECUTIONS = 300


def reproduce_chaos_harness() -> dict[str, Any]:
    """E23 — run the three campaign families and summarize the verdicts."""
    clean = []
    for cell, model, n, t in _CLEAN_CELLS:
        report = run_campaign(
            CampaignConfig(
                cell=cell,
                model=model,
                n=n,
                t=t,
                executions=_EXECUTIONS,
                seed=0,
            )
        )
        clean.append(
            {
                "cell": cell,
                "model": model,
                "n": n,
                "t": t,
                "counts": dict(report.counts),
                "incidents": len(report.incidents),
                "clean": report.clean
                and report.counts[DECIDED_OK] == _EXECUTIONS,
            }
        )

    broken = []
    for cell in _BROKEN_CELLS:
        report = run_campaign(
            CampaignConfig(
                cell=cell, model="iis", n=3, t=0,
                executions=_EXECUTIONS, seed=0,
            )
        )
        entry: dict[str, Any] = {
            "cell": cell,
            "violations": report.counts[VIOLATION],
            "hung": report.counts[HUNG],
            "incidents": len(report.incidents),
            "caught": report.counts[VIOLATION] > 0,
        }
        if report.violations:
            first = report.violations[0]
            assert first.trace is not None
            shrunk = shrink_trace(first.trace)
            replay_class, replay_violation = replay_trace(shrunk)
            entry.update(
                {
                    "property": first.property,
                    "original_weight": trace_weight(first.trace),
                    "shrunk_weight": trace_weight(shrunk),
                    "shrunk_rounds": [
                        list(map(list, round_.blocks))
                        for round_ in shrunk.rounds
                    ],
                    "shrunk_replays_to": (
                        replay_class,
                        replay_violation.property
                        if replay_violation is not None
                        else None,
                    ),
                }
            )
        broken.append(entry)

    illegal = []
    for mode, cell in _ILLEGAL_PROBES:
        report = run_campaign(
            CampaignConfig(
                cell=cell,
                model="iis",
                n=3,
                t=0,
                executions=50,
                seed=0,
                illegal=mode,
            )
        )
        illegal.append(
            {
                "mode": mode,
                "cell": cell,
                "detected": report.counts[HARNESS_FAULT_DETECTED],
                "executions": 50,
                "all_detected": report.counts[HARNESS_FAULT_DETECTED]
                == 50,
            }
        )

    return {"clean": clean, "broken": broken, "illegal": illegal}
