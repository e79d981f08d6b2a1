"""Paper artifacts do not depend on the interpreter's hash seed.

String hashes, and with them the iteration order of sets holding
strings, change with ``PYTHONHASHSEED``, so an experiment whose printed
output is identical under two different seeds does not let such an
order leak into what it reports.  E2, E7 and E9 drive
the closure, the solver and the lower-bound tables; E22 is left out
because it prints a wall-clock ``seconds`` field.

Views and vertices are interned, so the first equal object built is the
one every later construction returns.  Running the same experiments in
the reverse order must print the same block for each of them, so that
what an experiment reports does not depend on what ran before it.

The compiled solvability problem's constraint order and vertex order
must not depend on the seed either: a multivalued consensus task over
strings is compiled under two seeds and its scopes and decoded vertices
compared.  So must the input facet the solver's core stage picks: on
three-process consensus over strings every mixed facet ties at infinite
distance, and the tie-break alone decides.  So must a map found on the
series-reduced compile, whose eliminated vertices take the lowest
compatible output along their chains.
"""

import os
import subprocess
import sys
from pathlib import Path

_EXPERIMENTS = ("E2", "E7", "E9")

#: Printed before each experiment's block, so blocks can be compared.
_MARKER = b"@@ experiment "

_PROBE = f"""
import sys
from repro.cli import main
for identifier in sys.argv[1:]:
    print({_MARKER.decode()!r} + identifier, flush=True)
    assert main(["experiment", identifier]) == 0
    sys.stdout.flush()
"""


_SCOPES_PROBE = """
from repro.core.solvability import build_solvability_problem
from repro.models import ProtocolOperator
from repro.objects import AugmentedModel, TestAndSetBox
from repro.tasks import multivalued_consensus_task
task = multivalued_consensus_task([1, 2], ["x", "y", "z"])
problem = build_solvability_problem(
    list(task.input_complex),
    task.delta,
    ProtocolOperator(AugmentedModel(TestAndSetBox())),
    1,
)
print(problem.scopes)
"""

#: The same compile, printing its vertices in rank order.
_VERTICES_PROBE = _SCOPES_PROBE.replace(
    "print(problem.scopes)", "print(tuple(problem.vertices))"
)


#: Prints the largest simplex of the first compile: the core's facet.
_CORE_PROBE = """
import repro.core.solvability as solvability
from repro.models import ImmediateSnapshotModel
from repro.tasks import multivalued_consensus_task
compiled = []
build = solvability.build_solvability_problem
def spy(simplices, *rest, **options):
    compiled.append(list(simplices))
    return build(compiled[-1], *rest, **options)
solvability.build_solvability_problem = spy
task = multivalued_consensus_task([1, 2, 3], ["x", "y", "z"])
assert not solvability.is_solvable(task, ImmediateSnapshotModel(), 0)
print(max(compiled[0], key=len))
"""


#: Prints a digest of each map found through the reduced compile.
_MAP_PROBE = """
import hashlib
from fractions import Fraction
from repro.core import find_decision_map
from repro.models import ImmediateSnapshotModel
from repro.objects import AugmentedModel, TestAndSetBox
from repro.tasks import approximate_agreement_task, multivalued_consensus_task
maps = [
    find_decision_map(
        approximate_agreement_task([1, 2], Fraction(1, 9), 9),
        ImmediateSnapshotModel(),
        2,
    ),
    find_decision_map(
        multivalued_consensus_task([1, 2], ["x", "y", "z"]),
        AugmentedModel(TestAndSetBox()),
        2,
    ),
]
for decision in maps:
    lines = sorted(f"{v!r} -> {w!r}" for v, w in decision.assignment.items())
    print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


def _run_under(seed, experiments=_EXPERIMENTS, probe=_PROBE):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    env["PYTHONHASHSEED"] = str(seed)
    completed = subprocess.run(
        [sys.executable, "-c", probe, *experiments],
        capture_output=True,
        env=env,
        check=True,
    )
    return completed.stdout


def _blocks(stdout):
    """``{experiment id: its printed block}`` of one probe run."""
    blocks = {}
    for chunk in stdout.split(_MARKER)[1:]:
        identifier, _, block = chunk.partition(b"\n")
        blocks[identifier.decode()] = block
    return blocks


def test_experiment_output_is_identical_across_hash_seeds():
    first, second = _run_under(1), _run_under(2)
    for identifier in _EXPERIMENTS:
        assert f"{identifier} — ".encode() in first
    assert first == second


def test_experiment_output_does_not_depend_on_run_order():
    forward = _blocks(_run_under(1))
    backward = _blocks(_run_under(1, tuple(reversed(_EXPERIMENTS))))
    assert sorted(forward) == sorted(_EXPERIMENTS)
    for identifier in _EXPERIMENTS:
        assert f"{identifier} — ".encode() in forward[identifier]
        assert backward[identifier] == forward[identifier], identifier


def test_compiled_scopes_are_identical_across_hash_seeds():
    first = _run_under(0, (), _SCOPES_PROBE)
    assert first.startswith(b"((")
    assert first == _run_under(1, (), _SCOPES_PROBE)


def test_compiled_vertex_order_is_identical_across_hash_seeds():
    first = _run_under(0, (), _VERTICES_PROBE)
    assert first.startswith(b"(Vertex(")
    assert first == _run_under(1, (), _VERTICES_PROBE)


def test_core_facet_is_identical_across_hash_seeds():
    first = _run_under(0, (), _CORE_PROBE)
    assert first.startswith(b"Simplex[")
    assert first == _run_under(1, (), _CORE_PROBE)


def test_reduced_decision_map_is_identical_across_hash_seeds():
    first = _run_under(0, (), _MAP_PROBE)
    assert len(first.split()) == 2
    assert first == _run_under(1, (), _MAP_PROBE)

