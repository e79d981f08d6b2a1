"""Tests for the command-line interface."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def _subprocess_env():
    """The environment of a ``python -m repro`` child importing ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["models"],
            ["impossibility", "consensus", "--n", "2"],
            ["closure", "--eps", "1/4"],
            ["bounds", "--n", "4"],
            ["run", "halving", "--inputs", "0,1"],
            ["run", "thirds"],
            ["run", "tas-consensus"],
        ):
            assert parser.parse_args(argv).command == argv[0]
        # The default inputs suit the two-process algorithms too.
        assert main(["run", "thirds"]) == 0
        assert main(["run", "tas-consensus"]) == 0

    def test_check_is_not_a_command(self, capsys):
        # The source rules are a tier-1 test (tests/checks/).
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--lint", "src/"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'check'" in capsys.readouterr().err


class TestModelsCommand:
    def test_prints_fig8_census(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "13 facets" in out
        assert "25 facets" in out


class TestImpossibilityCommand:
    def test_consensus_iis(self, capsys):
        assert main(["impossibility", "consensus", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "unsolvable" in out

    def test_relaxed_consensus_tas(self, capsys):
        assert (
            main(
                [
                    "impossibility",
                    "relaxed-consensus",
                    "--n",
                    "3",
                    "--model",
                    "tas",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fixed point" in out

    def test_unknown_model_exits(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["impossibility", "consensus", "--model", "nonsense"]
            )


class TestClosureCommand:
    def test_two_process_quarter(self, capsys):
        assert main(["closure", "--n", "2", "--eps", "1/4", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert "max spread: 3/4" in out  # Claim 2: 3ε

    def test_liberal_flag(self, capsys):
        assert (
            main(
                [
                    "closure",
                    "--n",
                    "3",
                    "--eps",
                    "1/4",
                    "--m",
                    "4",
                    "--liberal",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "liberal" in out
        assert "max spread: 1/2" in out  # Claim 3: 2ε


class TestBoundsCommand:
    def test_table_lists_models(self, capsys):
        assert main(["bounds", "--n", "8", "--eps", "1/8"]) == 0
        out = capsys.readouterr().out
        assert "wait-free IIS" in out
        assert "binary consensus" in out
        assert "2 rounds" in out  # min(3, ⌈log₂ 8⌉ − 1) = 2

    def test_two_processes_hide_bc_row(self, capsys):
        assert main(["bounds", "--n", "2", "--eps", "1/9"]) == 0
        out = capsys.readouterr().out
        assert "binary consensus" not in out


class TestRunCommand:
    def test_halving(self, capsys):
        assert (
            main(
                [
                    "run",
                    "halving",
                    "--eps",
                    "1/4",
                    "--inputs",
                    "0,1/2,1",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decisions" in out
        assert "round 1" in out

    def test_tas_consensus(self, capsys):
        assert (
            main(["run", "tas-consensus", "--inputs", "0,1", "--seed", "1"])
            == 0
        )
        out = capsys.readouterr().out
        assert "box=" in out

    def test_bc_consensus_with_crashes(self, capsys):
        assert (
            main(
                [
                    "run",
                    "bc-consensus",
                    "--inputs",
                    "0,1/4,1/2,1",
                    "--seed",
                    "5",
                    "--crash",
                    "0.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decisions" in out


class TestRunAdversaryFlag:
    def test_matrix_adversary_runs_seeded(self, capsys):
        assert (
            main(
                [
                    "run",
                    "halving",
                    "--inputs",
                    "0,1/2,1",
                    "--seed",
                    "7",
                    "--adversary",
                    "snapshot",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decisions" in out

    def test_matrix_adversary_is_deterministic(self, capsys):
        argv = [
            "run", "halving", "--inputs", "0,1/2,1",
            "--seed", "3", "--adversary", "collect",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_box_algorithms_reject_matrix_adversaries(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "tas-consensus",
                    "--inputs",
                    "0,1",
                    "--adversary",
                    "snapshot",
                ]
            )

    def test_crash_rejected_with_matrix_adversary(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "halving",
                    "--inputs",
                    "0,1",
                    "--adversary",
                    "collect",
                    "--crash",
                    "0.2",
                ]
            )


class TestChaosCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        argv = [
            "chaos", "--algorithm", "aa", "--model", "iis",
            "-n", "3", "--executions", "30", "--seed", "0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "DECIDED_OK" in out
        assert "chaos campaign" in out

    def test_json_report_is_deterministic(self, capsys):
        import json

        argv = [
            "chaos", "--algorithm", "aa", "--executions", "40",
            "--seed", "0", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["counts"]["DECIDED_OK"] == 40

    def test_broken_cell_reports_but_exits_zero(self, capsys):
        argv = [
            "chaos", "--algorithm", "consensus-broken",
            "-t", "0", "--executions", "100", "--seed", "0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    @pytest.mark.parametrize("cell", ["aa", "consensus-broken"])
    def test_undetected_illegal_fault_exits_one(self, cell, capsys):
        # With t = 2 process 1 can crash mid-round in the last block, so
        # no view shows that its write was hidden: a fault that passed.
        # A broken cell is no excuse; its violations are not at stake.
        argv = [
            "chaos", "--algorithm", cell, "--inject-illegal",
            "stale-snapshot", "-t", "2", "--executions", "50", "--seed", "0",
        ]
        assert main(argv) == 1
        assert "DECIDED_OK" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--t", "--exec"])
    def test_abbreviated_option_is_a_usage_error(
        self, option, tmp_path, monkeypatch
    ):
        # `--t 5` would otherwise mean `--trace 5` and write a file `5`.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["chaos", option, "5", "--executions", "1"])
        assert exited.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_negative_deadline_exits_one_with_message(self):
        with pytest.raises(SystemExit) as exited:
            main(["chaos", "--deadline", "-1", "--executions", "50"])
        # A string exit code prints the message and exits with status 1.
        assert exited.value.code == (
            "campaign deadline -1.0s must not be negative"
        )

    def test_replay_and_shrink_round_trip(self, capsys, tmp_path):
        import json

        from repro.faults import CampaignConfig, run_campaign

        report = run_campaign(
            CampaignConfig(
                cell="consensus-broken", executions=200, seed=0, t=0
            )
        )
        trace_file = tmp_path / "trace.json"
        trace_file.write_text(report.violations[0].trace.to_json())
        argv = [
            "chaos", "--replay", str(trace_file), "--shrink", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "VIOLATION"
        assert payload["property"] == "agreement"

    def test_replay_missing_file_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--replay", "/nonexistent/trace.json"])

    @pytest.mark.parametrize(
        "payload",
        [
            '{"inputs": 5, "rounds": []}',
            "[1, 2]",
            '{"cell": "aa", "inputs": [[1, "0"], [2, "1"]], '
            '"rounds": [{"blocks": [[1, 2]], "crashes": 3}]}',
            '{"cell": "aa", "inputs": [[1, "abc"], [2, "1"]], "rounds": []}',
            '{"cell": "aa", "inputs": [[1, "0"], [1, "1"]], "rounds": []}',
            '{"cell": "consensus", "inputs": [[1, "a"], [2, "b"]], '
            '"rounds": [{"blocks": [[1, 2]], "box_choice": -5}]}',
            '{"cell": "aa", "inputs": [[1, "0"], [2, "1"], [3, "1/2"]], '
            '"rounds": [{"blocks": [[1], [2, 3]], "views": [[1]]}]}',
            # P_0 = {1} is not the participant set {1, 2, 3}.
            '{"cell": "aa", "inputs": [[1, "0"], [2, "1"], [3, "1/2"]], '
            '"rounds": [{"blocks": [[1], [2, 3]], '
            '"views": [[1], [1, 2, 3]]}]}',
        ],
        ids=[
            "inputs-not-list",
            "not-object",
            "crashes-not-list",
            "bad-input",
            "process-twice",
            "negative-box-choice",
            "views-not-one-per-group",
            "views-break-the-matrix-conditions",
        ],
    )
    def test_malformed_replay_trace_is_one_line(self, tmp_path, payload):
        trace_file = tmp_path / "trace.json"
        trace_file.write_text(payload)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--replay",
             str(trace_file)],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=60,
        )
        assert completed.returncode == 1
        assert completed.stdout == ""
        assert completed.stderr.startswith(
            f"cannot load trace {str(trace_file)!r}: "
        )
        assert completed.stderr.count("\n") == 1

    def test_json_report_is_pinned(self):
        # The campaign's crash probability and step budget, its seeding
        # and the report's format all show in this digest.
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--executions", "200",
             "--seed", "0", "--json"],
            capture_output=True,
            env=_subprocess_env(),
            timeout=120,
        )
        assert completed.returncode == 0
        assert hashlib.sha256(completed.stdout).hexdigest() == (
            "f83a1da40017a866f887dae82bb8f2715a4e76fd3b6aa7b7a7dd078856a8655d"
        )


class TestSerialSurface:
    """The CLI exposes one serial path: no resilience flags, no service."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--retries", "2"],
            ["chaos", "--task-timeout", "1.0"],
            ["chaos", "--no-degrade"],
            ["chaos", "--inject-exec-faults", "0"],
            ["experiment", "E19", "--no-degrade"],
            ["run", "halving", "--retries", "1"],
            ["serve"],
            ["client", "health"],
        ],
    )
    def test_removed_options_and_commands_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestExperimentCommand:
    def test_list_shows_all_ids(self, capsys):
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        for identifier in ("E1", "E9", "E21"):
            assert identifier in out

    def test_run_single_experiment(self, capsys):
        assert main(["experiment", "E14"]) == 0
        out = capsys.readouterr().out
        assert "Claim 1" in out
        assert "liberal_2" in out

    def test_case_insensitive(self, capsys):
        assert main(["experiment", "e1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out

    def test_unknown_experiment_is_a_one_line_error(self, capsys):
        assert main(["experiment", "E99"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown experiment 'E99'")
        assert "Traceback" not in captured.err

    def test_failing_experiment_exits_nonzero_with_cause(
        self, capsys, monkeypatch
    ):
        from repro.experiments import EXPERIMENTS

        entry = EXPERIMENTS["E1"]

        def boom():
            raise KeyError("missing artifact")

        monkeypatch.setitem(
            EXPERIMENTS,
            "E1",
            entry.__class__(
                entry.identifier, entry.artifact, entry.summary, boom
            ),
        )
        assert main(["experiment", "E1"]) == 1
        err = capsys.readouterr().err
        assert "experiment E1 failed" in err
        assert "KeyError" in err


class TestTraceDirectorySummarize:
    def test_empty_directory_exits(self, tmp_path):
        # Summarize reads one artifact file; a directory is not one.
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["trace", "summarize", str(tmp_path)])


class TestInputErrors:
    """Bad input ends in one diagnosable line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["closure", "--m", "0"], "error: "),
            (["impossibility", "consensus", "--n", "0"], "error: "),
            (["bounds", "--eps=-1/8"], "ε > 0"),
            (["bounds", "--n", "2", "--eps", "0"], "ε > 0"),
            (["closure", "--n", "1"], "at least 2 processes"),
            (
                ["run", "halving", "--inputs", "0,1", "--crash", "1.5"],
                "crash probability 1.5 outside [0, 1]",
            ),
            (["experiment", "E99"], "known ids: E1, E2, E3, "),
            (["experiment", "e99"], "known ids: E1, E2, E3, "),
        ],
    )
    def test_library_errors_exit_one(self, argv, needle, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert needle in captured.err
        assert "rounds" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure", "--eps", "abc"],
            ["closure", "--eps", "1/0"],
            ["bounds", "--eps", "x"],
            ["run", "halving", "--inputs", "0,x"],
            ["run", "halving", "--eps", ""],
            ["chaos", "--eps", "1/"],
        ],
    )
    def test_malformed_rationals_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "is not a rational number" in capsys.readouterr().err

    def test_rational_options_parse_to_fractions(self):
        args = build_parser().parse_args(
            ["run", "halving", "--eps", "1/4", "--inputs", "0,1/2"]
        )
        assert args.eps == Fraction(1, 4)
        assert args.inputs == [Fraction(0), Fraction(1, 2)]
