"""Tests of the ledger itself; run with ``pytest benchmarks/ledger``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
sys.path.insert(0, str(LEDGER_DIR))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _target_index(layer: str) -> int:
    return next(
        i for i, t in enumerate(tracing.TARGETS) if t.layer == layer
    )


def test_self_time_of_a_synthetic_span_tree():
    # delta_prime [0, 10] holds two of_simplex calls, [1, 4] and [5, 9];
    # the first holds a one_round build [2, 3].
    closure = _target_index("closure")
    protocol = _target_index("protocol.of_simplex")
    model = _target_index("models.one_round")
    spans = [
        [closure, 0.0, 10.0, -1, 0, None],
        [protocol, 1.0, 4.0, 0, 0, None],
        [model, 2.0, 3.0, 1, 0, None],
        [protocol, 5.0, 9.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    recorder = tracing.Recorder()
    recorder.spans.extend(spans)
    metrics = tracing.layer_metrics(recorder, {}, wall_s=10.5)
    assert metrics["closure.self_s"] == 3.0
    assert metrics["protocol.of_simplex.self_s"] == 6.0
    assert metrics["protocol.of_simplex.calls"] == 2
    assert metrics["models.one_round.self_s"] == 1.0
    assert metrics["untraced.self_s"] == pytest.approx(0.5)


def test_hit_rates_count_every_model_cache():
    counts = {
        "cache:one-round-complex[a]:misses": 4,
        "cache:one-round-complex[b]:hits": 2,
        "cache:one-round-complex[b]:misses": 2,
    }
    metrics = tracing.layer_metrics(tracing.Recorder(), counts, wall_s=0.0)
    assert metrics["models.one_round.hit_rate"] == 0.25


def test_missing_wrap_target_is_reported_absent():
    from fractions import Fraction

    import repro.core.closure as closure_module
    from repro.core.solvability import build_solvability_problem, is_solvable
    from repro.models import ImmediateSnapshotModel
    from repro.tasks import approximate_agreement_task

    targets = tuple(
        t._replace(qualname="SolvabilityProblem.no_such_stage")
        if t.layer == "solvability.prepare"
        else t
        for t in tracing.TARGETS
    ) + (tracing.Target("gone", "repro.no_such_module", "f"),)
    recorder = tracing.Recorder(targets)
    recorder.install()
    try:
        # Imported by name into closure.py: rebound there as well.
        assert closure_module.build_solvability_problem is not (
            build_solvability_problem
        )
        recorder.op = 0
        task = approximate_agreement_task([1, 2], Fraction(1, 3), 3)
        assert is_solvable(task, ImmediateSnapshotModel(), 1)
    finally:
        recorder.uninstall()
    restored = closure_module.build_solvability_problem
    assert restored is build_solvability_problem
    assert recorder.absent == [
        "repro.core.solvability:SolvabilityProblem.no_such_stage",
        "repro.no_such_module:f",
    ]
    metrics = tracing.layer_metrics(recorder, {}, wall_s=1.0)
    assert "solvability.prepare.self_s" not in metrics
    assert "solvability.prepare.refuted_frac" not in metrics
    assert metrics["solvability.compile.constraints"] > 0
    assert metrics["solvability.search.self_s"] > 0


def test_wrong_verdict_fails_the_run(monkeypatch, capsys):
    wrong = dataclasses.replace(
        workloads.WORKLOADS["solve-find"],
        setup=lambda ops: [lambda: False for _ in ops],  # claims unsolvable
    )
    monkeypatch.setitem(workloads.WORKLOADS, "solve-find", wrong)

    def spawn_in_process(workload, seed, stamp=None, setup_only=False):
        record = passrun.run_pass(workload, seed, setup_only=setup_only)
        record["setup_s"] = 0.01
        return record

    code = run.main(
        ["--workload", "solve-find", "--seconds", "0", "--trace", "0"],
        spawn=spawn_in_process,
    )
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 3 * run.MIN_PASSES


def test_oracles_accept_the_closed_form_and_reject_the_opposite():
    op = {"n": 3, "liberal": True, "model": "tas", "m": 4, "t": 1}
    assert workloads.solvable_closed_form(3, 4, 1) is False
    assert workloads.solvable_closed_form(2, 9, 2) is True
    check = workloads.WORKLOADS["solve-refute"].check
    assert check(op, False, {}) is None
    assert "closed form" in check(op, True, {})


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(
        tracing.PER_LAYER_UNITS.items()
    )
    assert [w["name"] for w in BENCH["workloads"]] == list(
        workloads.WORKLOADS
    )


def test_printed_metric_names_match_benchmark_json(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [
            sys.executable, str(LEDGER_DIR / "run.py"),
            "--workload", "chaos", "--seconds", "0", "--trace", "1",
            "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for spec in BENCH["end_to_end"]:
        assert any(l.split()[:1] == [spec["name"]] for l in lines)
    ledger = json.loads(out.read_text(encoding="utf-8"))
    untraced = run.result_line(ledger["workloads"], traced=False)
    assert list(untraced["metrics"]) == [
        m["name"] for m in BENCH["end_to_end"]
    ]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_compare_labels():
    def side(*samples):
        ordered = sorted(samples)
        return {
            "value": ordered[len(ordered) // 2],
            "q1": ordered[1],
            "q3": ordered[-2],
            "samples": list(samples),
        }

    base = side(1.0, 1.01, 1.02, 0.99, 1.0)
    same = side(1.0, 1.02, 1.0, 0.99, 1.01)
    higher = side(1.2, 1.21, 1.19, 1.2, 1.22)
    wide = side(0.7, 0.9, 1.0, 1.1, 1.3)
    assert compare.label(base, same, 0.1, True) == "unchanged"
    assert compare.label(base, higher, 0.1, True) == "worse"
    assert compare.label(base, higher, 0.1, False) == "better"
    assert compare.label(base, wide, 0.1, True) == "unresolved"


def test_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        LEDGER_DIR,
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [
            sys.executable, "benchmarks/ledger/run.py",
            "--workload", "paper", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

