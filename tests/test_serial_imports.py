"""The proof machine runs in one process and imports no more than it uses.

A paper experiment plus a chaos campaign, run in a fresh interpreter,
must leave the stdlib's process-pool, socket and event-loop modules
unimported: they cost start-up time and memory on every run and nothing
in the serial pipeline needs them.  A campaign alone must load nothing
of the experiments: beyond ``import repro`` it needs only
:mod:`repro.faults`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_FORBIDDEN = ("multiprocessing", "concurrent.futures", "socket", "asyncio")

_PROBE = f"""
import json, sys
from repro.experiments import run_experiment
from repro.faults import CampaignConfig, run_campaign
run_experiment("E9")
run_campaign(CampaignConfig(executions=10))
print(json.dumps([m for m in {_FORBIDDEN!r} if m in sys.modules]))
"""

_CAMPAIGN_PROBE = """
import json, sys
import repro
before = set(sys.modules)
from repro.faults import CampaignConfig, run_campaign
run_campaign(CampaignConfig(executions=10))
print(json.dumps({
    "added": sorted(
        m for m in set(sys.modules) - before
        if m.startswith("repro.") and not m.startswith("repro.faults")
    ),
    "experiments": "repro.experiments" in sys.modules,
}))
"""


def _run(probe):
    """The JSON that ``probe`` prints last, run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_experiment_and_campaign_import_no_process_tooling():
    assert _run(_PROBE) == []


def test_a_campaign_imports_no_experiment_code():
    assert _run(_CAMPAIGN_PROBE) == {"added": [], "experiments": False}
