"""Every script under ``examples/`` runs to completion.

The examples are the documented entry points for new readers and build
the models, closures and runtimes end to end, so each one runs in its own
interpreter (as ``python examples/<name>.py`` would) and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_EXAMPLES = sorted((_ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert len(_EXAMPLES) == 5


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(_ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=_ROOT,
    )
    assert completed.returncode == 0, completed.stderr
