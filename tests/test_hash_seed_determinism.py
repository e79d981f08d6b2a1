"""Paper artifacts do not depend on the interpreter's hash seed.

String hashes, and with them the iteration order of sets holding
strings, change with ``PYTHONHASHSEED``, so an experiment whose printed
output is identical under two different seeds does not let such an
order leak into what it reports.  E2, E7 and E9 drive
the closure, the solver and the lower-bound tables; E22 is left out
because it prints a wall-clock ``seconds`` field.
"""

import os
import subprocess
import sys
from pathlib import Path

_EXPERIMENTS = ("E2", "E7", "E9")

_PROBE = f"""
from repro.cli import main
for identifier in {_EXPERIMENTS!r}:
    assert main(["experiment", identifier]) == 0
"""


def _run_under(seed):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    env["PYTHONHASHSEED"] = str(seed)
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        env=env,
        check=True,
    )
    return completed.stdout


def test_experiment_output_is_identical_across_hash_seeds():
    first, second = _run_under(1), _run_under(2)
    for identifier in _EXPERIMENTS:
        assert f"{identifier} — ".encode() in first
    assert first == second
