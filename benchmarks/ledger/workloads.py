"""The ledger's five workloads: inputs from a seed, the measured call, oracles.

Input generation is pure Python and imports nothing from ``repro``, so the
orchestrator can count a pass's operations without loading the program.
Everything that touches ``repro`` is imported inside the functions, which
only ever run in a pass process.

Every workload is a closed loop with one serial caller.  Within one pass
each operation is independent of the seed except for its position and,
for ``closure`` and ``chaos``, the concrete input drawn; the amount of
work per pass is the same for every seed, so per-seed medians stay
comparable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = ["WORKLOADS", "PAPER_EXPERIMENTS", "Workload", "project"]

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: E18 is left out on purpose: its time is a deliberate 2M-node thrash of
#: the ``none`` solver ablation, which no caller ever runs.
PAPER_EXPERIMENTS = tuple(f"E{i}" for i in range(1, 24) if i != 18)

#: Closure grid: liberal ε-AA with ε = 1/5 on {0, 1/5, …, 1}.
CLOSURE_M = 5
#: The β of E12 (Theorem 4) and its majority call side {1, 3, 4}.
THEOREM4_BETA = {1: 0, 2: 1, 3: 0, 4: 0, 5: 1}
CLOSURE_MODELS = (("iis", (1, 2, 3)), ("tas", (1, 2, 3)), ("bc", (1, 3, 4)))

#: E23's six clean campaign cells: (cell, model, n, t).
CHAOS_CELLS = (
    ("aa", "iis", 3, 1),
    ("aa", "snapshot", 3, 1),
    ("aa", "collect", 3, 1),
    ("aa2", "iis", 2, 1),
    ("consensus", "iis", 3, 1),
    ("consensus", "iis", 4, 2),
)
CHAOS_SEEDS_PER_CELL = 5
CHAOS_EXECUTIONS = 150


# ----------------------------------------------------------------------
# Inputs (pure Python, seed-determined)
# ----------------------------------------------------------------------
def _paper_inputs(rng: random.Random) -> list[dict]:
    ids = list(PAPER_EXPERIMENTS)
    rng.shuffle(ids)
    return [{"id": experiment} for experiment in ids]


def _closure_inputs(rng: random.Random) -> list[dict]:
    ops = []
    for model, ids in CLOSURE_MODELS:
        for low in range(CLOSURE_M + 1):
            for high in range(low, CLOSURE_M + 1):
                # Every grid assignment to the three processes whose values
                # span exactly the window [low, high]; one is drawn.
                candidates = [
                    (a, b, c)
                    for a in range(low, high + 1)
                    for b in range(low, high + 1)
                    for c in range(low, high + 1)
                    if min(a, b, c) == low and max(a, b, c) == high
                ]
                values = rng.choice(candidates)
                ops.append(
                    {"model": model, "sigma": dict(zip(ids, values))}
                )
    rng.shuffle(ops)
    return ops


def _solve_find_inputs(rng: random.Random) -> list[dict]:
    ops = [
        {"n": 2, "liberal": False, "model": "iis", "m": m, "t": 3}
        for m in (11, 12, 13)
    ]
    rng.shuffle(ops)
    return ops


def _solve_refute_inputs(rng: random.Random) -> list[dict]:
    ops = [
        {"n": 2, "liberal": False, "model": "iis", "m": m, "t": 2}
        for m in range(19, 24)
    ]
    ops += [
        {"n": 3, "liberal": True, "model": "iis", "m": m, "t": 1}
        for m in (6, 7)
    ]
    ops += [
        {"n": 3, "liberal": True, "model": "tas", "m": m, "t": 1}
        for m in (4, 5)
    ]
    rng.shuffle(ops)
    return ops


def _chaos_inputs(rng: random.Random) -> list[dict]:
    ops = [
        {
            "cell": cell,
            "model": model,
            "n": n,
            "t": t,
            "seed": rng.randrange(1 << 30),
        }
        for cell, model, n, t in CHAOS_CELLS
        for _ in range(CHAOS_SEEDS_PER_CELL)
    ]
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# Program objects (setup) and the measured call
# ----------------------------------------------------------------------
def _model(kind: str) -> Any:
    from repro.models import ImmediateSnapshotModel
    from repro.objects import (
        AugmentedModel,
        BinaryConsensusBox,
        TestAndSetBox,
        beta_input_function,
    )

    if kind == "iis":
        return ImmediateSnapshotModel()
    if kind == "tas":
        return AugmentedModel(TestAndSetBox())
    if kind == "bc":
        return AugmentedModel(
            BinaryConsensusBox(), beta_input_function(THEOREM4_BETA)
        )
    raise ValueError(f"unknown model {kind!r}")


# Traced callables are reached through their module at call time, so a
# traced pass, which rebinds them after set-up, records them.
def _paper_setup(ops: list[dict]) -> list[Callable[[], Any]]:
    import repro.experiments.registry as registry

    return [
        (lambda experiment=op["id"]: registry.run_experiment(experiment))
        for op in ops
    ]


def _closure_setup(ops: list[dict]) -> list[Callable[[], Any]]:
    from repro.core import ClosureComputer
    from repro.tasks import liberal_approximate_agreement_task
    from repro.tasks.inputs import input_simplex

    computers = {
        model: ClosureComputer(
            liberal_approximate_agreement_task(
                ids, Fraction(1, CLOSURE_M), CLOSURE_M
            ),
            _model(model),
        )
        for model, ids in CLOSURE_MODELS
    }
    calls = []
    for op in ops:
        sigma = input_simplex(
            {i: Fraction(k, CLOSURE_M) for i, k in op["sigma"].items()}
        )
        computer = computers[op["model"]]
        calls.append(lambda c=computer, s=sigma: c.delta_prime(s))
    return calls


def _solve_setup(ops: list[dict]) -> list[Callable[[], Any]]:
    from repro.core import is_solvable
    from repro.tasks import (
        approximate_agreement_task,
        liberal_approximate_agreement_task,
    )

    calls = []
    for op in ops:
        build = (
            liberal_approximate_agreement_task
            if op["liberal"]
            else approximate_agreement_task
        )
        task = build(
            list(range(1, op["n"] + 1)), Fraction(1, op["m"]), op["m"]
        )
        model = _model(op["model"])
        calls.append(
            lambda task=task, model=model, t=op["t"]: is_solvable(
                task, model, t
            )
        )
    return calls


def _chaos_setup(ops: list[dict]) -> list[Callable[[], Any]]:
    import repro.faults.campaign as campaign

    calls = []
    for op in ops:
        config = campaign.CampaignConfig(
            cell=op["cell"],
            model=op["model"],
            n=op["n"],
            t=op["t"],
            executions=CHAOS_EXECUTIONS,
            seed=op["seed"],
        )
        calls.append(lambda c=config: campaign.run_campaign(c))
    return calls


# ----------------------------------------------------------------------
# Oracles: none of them calls the solver
# ----------------------------------------------------------------------
def project(value: Any) -> Any:
    """Project an experiment result onto JSON-comparable facts.

    Timings, memory and cache tallies are dropped (see ``_NOT_FACTS``);
    complexes are reduced to their facet/vertex counts and dimension.
    """
    from repro.topology.complex import SimplicialComplex

    if isinstance(value, SimplicialComplex):
        return {
            "dim": value.dim,
            "facets": len(value.facets),
            "vertices": len(value.vertices),
        }
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: project(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {
            str(key): project(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
            if str(key) not in _NOT_FACTS
        }
    if isinstance(value, (list, tuple)):
        return [project(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    # Floats are all timings or cache ratios today; a new one needs review.
    raise TypeError(f"no projection for {type(value).__name__}")


#: Result keys that are measurements of the run, not facts of the paper:
#: wall time (E22 ``seconds``) and cache tallies (E19 ``cache_entries``,
#: E22's request/materialization counters and the ratio built from them).
_NOT_FACTS = frozenset(
    {
        "seconds",
        "stats",
        "cache_entries",
        "requests",
        "materializations",
        "saving_factor",
        "operator_requests",
        "operator_materializations",
    }
)


def _paper_check(op: dict, result: Any, expected: dict) -> Optional[str]:
    got = project(result)
    want = expected.get(op["id"])
    if got != want:
        return f"{op['id']}: projection differs from expected.json"
    return None


def _closure_check(op: dict, result: Any, expected: dict) -> Optional[str]:
    # Claim 3 (IIS), Theorem 3 (test&set) and Theorem 4 (β-closure on
    # the majority side): Δ'(σ) equals Δ(σ) of liberal 2ε-AA.  For three
    # processes that is every grid assignment inside σ's value window
    # whose spread is at most 2ε — enumerated here with integers.
    sigma = op["sigma"]
    ids = sorted(sigma)
    low, high = min(sigma.values()), max(sigma.values())
    window = range(low, high + 1)
    want = {
        tuple(zip(ids, combo))
        for combo in (
            (a, b, c) for a in window for b in window for c in window
        )
        if max(combo) - min(combo) <= 2
    }
    got = {
        tuple(
            sorted(
                (v.color, int(v.value * CLOSURE_M)) for v in facet.vertices
            )
        )
        for facet in result.facets
    }
    if got != want:
        return (
            f"closure {op['model']} σ={sigma}: Δ' has {len(got)} facets, "
            f"liberal 2ε-AA has {len(want)}"
        )
    return None


def solvable_closed_form(n: int, m: int, t: int) -> bool:
    """Corollary 3 / Theorem 3 with ε = 1/m: ``3^t ≥ m`` for two
    processes, ``2^t ≥ m`` for three or more (IIS and IIS+test&set)."""
    return (3 if n == 2 else 2) ** t >= m


def _solve_check(op: dict, result: Any, expected: dict) -> Optional[str]:
    want = solvable_closed_form(op["n"], op["m"], op["t"])
    if result is not want:
        return (
            f"solve n={op['n']} m={op['m']} t={op['t']} {op['model']}: "
            f"verdict {result!r}, closed form {want!r}"
        )
    return None


def _chaos_check(op: dict, result: Any, expected: dict) -> Optional[str]:
    ok = result.counts.get("DECIDED_OK", 0)
    if ok != CHAOS_EXECUTIONS or result.incidents:
        return (
            f"chaos {op['cell']}/{op['model']} seed={op['seed']}: "
            f"{ok}/{CHAOS_EXECUTIONS} DECIDED_OK, "
            f"{len(result.incidents)} incidents"
        )
    return None


@dataclass(frozen=True)
class Workload:
    """One workload: seeded inputs, program set-up, and an oracle."""

    name: str
    inputs: Callable[[random.Random], list[dict]]
    setup: Callable[[list[dict]], list[Callable[[], Any]]]
    check: Callable[[dict, Any, dict], Optional[str]]

    def make_inputs(self, seed: int) -> list[dict]:
        """The pass's operations; the same seed gives the same list."""
        return self.inputs(random.Random(f"{self.name}:{seed}"))


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper", _paper_inputs, _paper_setup, _paper_check),
        Workload(
            "closure", _closure_inputs, _closure_setup, _closure_check
        ),
        Workload(
            "solve-find", _solve_find_inputs, _solve_setup, _solve_check
        ),
        Workload(
            "solve-refute", _solve_refute_inputs, _solve_setup, _solve_check
        ),
        Workload("chaos", _chaos_inputs, _chaos_setup, _chaos_check),
    )
}


def load_expected() -> dict:
    """The pinned paper projections (``expected.json``)."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


if __name__ == "__main__":
    # Re-pin expected.json from the current program; review the diff.
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from repro.experiments.registry import run_experiment

    pinned = {
        experiment: project(run_experiment(experiment))
        for experiment in PAPER_EXPERIMENTS
    }
    EXPECTED_PATH.write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
