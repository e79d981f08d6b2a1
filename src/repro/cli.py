"""Command-line interface.

Exposes the library's headline computations without writing Python::

    repro models                      # Fig. 8 census of the three models
    repro impossibility consensus --n 3 --model iis
    repro closure --n 3 --eps 1/4 --m 4 --liberal --model tas
    repro bounds --eps 1/8 --n 3
    repro run halving --eps 1/8 --inputs 0,1/2,1 --seed 7 --crash 0.2
    repro chaos --algorithm aa --model iis -n 3 --executions 2000 --seed 0
    repro chaos --replay trace.json --shrink

The ``run``, ``experiment``, and ``chaos`` subcommands accept
``--trace PATH`` to record a telemetry span tree of the invocation as
repro-trace JSON (see docs/OBSERVABILITY.md)::

    repro experiment E9 --trace e9.trace.json
    repro trace summarize e9.trace.json --top 10

``trace summarize`` validates the whole artifact first and rejects a
malformed one with one ``invalid trace …`` line (exit 1); ``chaos
--replay`` does the same for a fault trace it cannot replay (``cannot
load trace …``).  Library errors (bad task parameters, unknown
experiment ids) print one ``error: …`` line and exit 1; malformed option
values are usage errors (exit 2), and so are abbreviated option names
(``--t 5`` does not mean ``--trace 5``).  Also available as ``python -m
repro``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Any, Optional

from repro.algorithms import (
    BitwiseAA,
    ConsensusViaBinaryConsensus,
    HalvingAA,
    TwoProcessConsensusTAS,
    TwoProcessThirdsAA,
)
from repro.analysis import ExperimentRow, figure8_census, render_table
from repro.core import (
    ClosureComputer,
    aa_lower_bound_iis,
    aa_lower_bound_iis_bc,
    aa_lower_bound_iis_tas,
    impossibility_from_fixed_point,
)
from repro.models import ImmediateSnapshotModel
from repro.objects import (
    AugmentedModel,
    BinaryConsensusBox,
    TestAndSetBox,
    beta_input_function,
)
from repro.objects.base import BlackBox
from repro.errors import ReproError, TaskSpecificationError
from repro.runtime import (
    Adversary,
    IteratedExecutor,
    RandomAdversary,
    RandomMatrixAdversary,
)
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    liberal_approximate_agreement_task,
    relaxed_consensus_task,
)
from repro.tasks.inputs import input_simplex

__all__ = ["main", "build_parser"]


def _rational(text: str) -> Fraction:
    """argparse ``type=`` for rational options such as ``--eps 1/8``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number"
        ) from None


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1 (``--top``)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer"
        )
    return value


def _rationals(text: str) -> list[Fraction]:
    """argparse ``type=`` for comma-separated rationals (``0,1/2,1``)."""
    return [_rational(part) for part in text.split(",")]


def _resolve_model(name: str, n: int):
    """Map a CLI model name to a computation model instance."""
    if name == "iis":
        return ImmediateSnapshotModel()
    if name == "tas":
        return AugmentedModel(TestAndSetBox())
    if name == "bc":
        # Theorem 4 style: ID-called, alternating bits.
        beta = {i: i % 2 for i in range(1, n + 1)}
        return AugmentedModel(BinaryConsensusBox(), beta_input_function(beta))
    raise SystemExit(f"unknown model {name!r}: use iis, tas, or bc")


def _cmd_models(args: argparse.Namespace) -> int:
    data = figure8_census()
    rows = [
        ExperimentRow(
            "immediate snapshot",
            "13 facets (chromatic subdivision)",
            f"{data['immediate_snapshot'].facets} facets, "
            f"f-vector {data['immediate_snapshot'].f_vector}",
            data["immediate_snapshot"].facets == 13,
        ),
        ExperimentRow(
            "snapshot",
            "19 facets",
            f"{data['snapshot'].facets} facets",
            data["snapshot"].facets == 19,
        ),
        ExperimentRow(
            "collect",
            "25 facets",
            f"{data['collect'].facets} facets",
            data["collect"].facets == 25,
        ),
        ExperimentRow(
            "strict hierarchy IIS ⊂ snap ⊂ collect",
            "yes",
            str(
                data["iis_strictly_inside_snapshot"]
                and data["snapshot_strictly_inside_collect"]
            ),
            True,
        ),
    ]
    print(render_table("One-round models, n = 3 (Fig. 8)", rows))
    return 0


def _cmd_impossibility(args: argparse.Namespace) -> int:
    ids = list(range(1, args.n + 1))
    if args.task == "consensus":
        task = binary_consensus_task(ids)
    elif args.task == "relaxed-consensus":
        task = relaxed_consensus_task(ids)
    else:
        raise SystemExit(f"unknown task {args.task!r}")
    model = _resolve_model(args.model, args.n)
    report = impossibility_from_fixed_point(task, model)
    print(report.summary())
    return 0 if report.fixed_point or report.zero_round_solvable else 1


def _cmd_closure(args: argparse.Namespace) -> int:
    if args.n < 2:
        # σ spreads the inputs evenly over [0, 1], which takes two ends.
        raise TaskSpecificationError(
            f"closure needs at least 2 processes, got --n {args.n}"
        )
    ids = list(range(1, args.n + 1))
    eps = args.eps
    builder = (
        liberal_approximate_agreement_task
        if args.liberal
        else approximate_agreement_task
    )
    task = builder(ids, eps, args.m)
    model = _resolve_model(args.model, args.n)
    computer = ClosureComputer(task, model)
    values = {i: Fraction(k, args.n - 1) for k, i in enumerate(ids)}
    # Snap onto the grid.
    values = {
        i: Fraction(round(v * args.m), args.m) for i, v in values.items()
    }
    sigma = input_simplex(values)
    outputs = computer.legal_outputs(sigma)
    spreads = sorted(
        {
            max(v.value for v in tau.vertices)
            - min(v.value for v in tau.vertices)
            for tau in outputs
        }
    )
    print(f"task      : {task.name}")
    print(f"model     : {model.name}")
    print(f"input σ   : { {i: str(v) for i, v in values.items()} }")
    print(f"|Δ'(σ)|   : {len(outputs)} legal output sets")
    print(f"spreads   : {[str(s) for s in spreads]}")
    print(f"max spread: {max(spreads)}  (ε = {eps})")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    eps = args.eps
    n = args.n
    rows = [
        ExperimentRow(
            "wait-free IIS",
            "⌈log₃ 1/ε⌉ (n=2) / ⌈log₂ 1/ε⌉ (n≥3)",
            f"{aa_lower_bound_iis(n, eps)} rounds",
            True,
        ),
        ExperimentRow(
            "IIS + test&set",
            "1 (n=2) / ⌈log₂ 1/ε⌉ (n≥3)",
            f"{aa_lower_bound_iis_tas(n, eps)} rounds",
            True,
        ),
    ]
    if n >= 3:
        rows.append(
            ExperimentRow(
                "IIS + binary consensus (ID-called)",
                "min(⌈log₂ 1/ε⌉, ⌈log₂ n⌉ − 1)",
                f"{aa_lower_bound_iis_bc(n, eps)} rounds",
                True,
            )
        )
    print(
        render_table(
            f"ε-approximate agreement round bounds — n = {n}, ε = {eps}",
            rows,
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    eps = args.eps
    inputs = {i + 1: value for i, value in enumerate(args.inputs)}

    box: Optional[BlackBox] = None
    if args.algorithm == "halving":
        algorithm = HalvingAA(eps)
    elif args.algorithm == "thirds":
        algorithm = TwoProcessThirdsAA(eps)
    elif args.algorithm == "tas-consensus":
        algorithm = TwoProcessConsensusTAS()
        box = TestAndSetBox()
    elif args.algorithm == "bc-consensus":
        algorithm = ConsensusViaBinaryConsensus(len(inputs))
        box = BinaryConsensusBox()
    elif args.algorithm == "bitwise":
        algorithm = BitwiseAA(eps)
        box = BinaryConsensusBox()
    else:
        raise SystemExit(f"unknown algorithm {args.algorithm!r}")

    if args.adversary == "random":
        adversary: Adversary = RandomAdversary(
            seed=args.seed, crash_probability=args.crash
        )
    else:
        # Seeded matrix adversary over the weaker snapshot/collect models.
        if box is not None:
            raise SystemExit(
                f"algorithm {args.algorithm!r} uses a black box, which "
                "requires immediate-snapshot schedules; use "
                "--adversary random"
            )
        if args.crash:
            raise SystemExit(
                "--crash is only supported with --adversary random"
            )
        adversary = RandomMatrixAdversary(kind=args.adversary, seed=args.seed)

    executor = IteratedExecutor(box=box)
    result = executor.run(algorithm, inputs, adversary)
    print(f"algorithm : {algorithm.name} ({algorithm.rounds} rounds)")
    for round_index, (entry, box_outputs) in enumerate(
        zip(result.trace, result.box_outputs), start=1
    ):
        blocks = " | ".join(",".join(map(str, b)) for b in entry.blocks)
        extra = f"  box={box_outputs}" if box_outputs else ""
        print(f"  round {round_index}: [{blocks}]{extra}")
    if result.crashed:
        print(f"crashed   : {result.crashed}")
    print(
        "decisions :",
        {p: str(v) for p, v in sorted(result.decisions.items())},
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from pprint import pformat

    from repro.experiments import EXPERIMENTS, get_experiment

    if args.id is None:
        print("Available experiments (see DESIGN.md §4):")
        for identifier in sorted(
            EXPERIMENTS, key=lambda e: int(e[1:])
        ):
            entry = EXPERIMENTS[identifier]
            print(f"  {identifier:<4} {entry.artifact:<28} {entry.summary}")
        return 0
    from repro.experiments import run_experiment

    experiment = get_experiment(args.id)
    print(f"{experiment.identifier} — {experiment.artifact}")
    print(experiment.summary)
    print()
    print(pformat(run_experiment(experiment.identifier)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import load_trace
    from repro.telemetry import render_text as render_trace_text

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            trace = load_trace(handle.read())
    except OSError as exc:
        raise SystemExit(f"cannot read trace {args.path!r}: {exc}")
    except ReproError as exc:
        raise SystemExit(f"invalid trace {args.path!r}: {exc}")
    print(render_trace_text(trace, top=args.top))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults import (
        CampaignConfig,
        FaultTrace,
        replay_trace,
        render_report,
        report_to_json,
        run_campaign,
        shrink_trace,
        trace_weight,
    )
    from repro.faults.campaign import get_cell

    eps = args.eps
    if args.replay is not None:
        # Every library error of a replay is a defect of the trace file.
        try:
            with open(args.replay, "r", encoding="utf-8") as handle:
                trace = FaultTrace.from_json(handle.read())
            if args.shrink:
                trace = shrink_trace(trace, epsilon=eps)
            classification, violation = replay_trace(trace, epsilon=eps)
        except (OSError, ReproError) as exc:
            raise SystemExit(f"cannot load trace {args.replay!r}: {exc}")
        payload = {
            "classification": classification,
            "property": violation.property if violation else None,
            "witness": violation.witness if violation else None,
            "weight": trace_weight(trace),
            "trace": trace.to_json(),
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"classification: {classification}")
            if violation is not None:
                print(f"property      : {violation.property}")
                print(f"witness       : {violation.witness}")
            print(f"trace weight  : {payload['weight']}")
            if args.shrink:
                print(f"shrunk trace  : {payload['trace']}")
        return 0

    config = CampaignConfig(
        cell=args.algorithm,
        model=args.model,
        n=args.n,
        t=args.t,
        executions=args.executions,
        seed=args.seed,
        epsilon=eps,
        deadline=args.deadline,
        illegal=args.inject_illegal,
    )
    try:
        report = run_campaign(config)
    except ReproError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(report_to_json(report), indent=2, sort_keys=True))
    else:
        print(render_report(report))
    if config.illegal is None and get_cell(config.cell).broken:
        # Violations/hangs are the expected outcome for broken fixtures;
        # under an illegal mode every execution must still detect it.
        return 0
    return 0 if report.clean else 1


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace`` option."""
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a telemetry span tree of this invocation to PATH "
        "(read it with `repro trace summarize`)",
    )


class _Parser(argparse.ArgumentParser):
    """A parser that matches option names exactly.

    With argparse's default prefix matching, ``repro chaos --t 5`` would
    silently mean ``--trace 5``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description=(
            "Asynchronous speedup theorem toolbox (Fraigniaud–Paz–Rajsbaum, "
            "PODC 2022)"
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    sub.add_parser("models", help="census of the three one-round models")

    p = sub.add_parser(
        "impossibility", help="run the Lemma 1 fixed-point pipeline"
    )
    p.add_argument("task", choices=["consensus", "relaxed-consensus"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--model", default="iis", choices=["iis", "tas", "bc"])

    p = sub.add_parser("closure", help="compute Δ' of ε-approximate agreement")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eps", type=_rational, default="1/4")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--liberal", action="store_true")
    p.add_argument("--model", default="iis", choices=["iis", "tas", "bc"])

    p = sub.add_parser("bounds", help="ε-AA round-bound table per model")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--eps", type=_rational, default="1/8")

    p = sub.add_parser(
        "experiment",
        help="list or run the paper's experiments (E1–E23)",
    )
    p.add_argument("id", nargs="?", default=None)
    _add_trace_arguments(p)

    p = sub.add_parser(
        "trace",
        help="inspect recorded telemetry trace artifacts",
        description=(
            "Work with trace artifacts recorded via --trace on the run/"
            "experiment/chaos subcommands."
        ),
    )
    trace_sub = p.add_subparsers(
        dest="trace_command", required=True, parser_class=_Parser
    )
    ps = trace_sub.add_parser(
        "summarize",
        help="print the top-N self-time table of a recorded trace",
    )
    ps.add_argument("path", metavar="PATH", help="a trace artifact")
    ps.add_argument(
        "--top",
        type=_positive_int,
        default=15,
        help="number of span names to show (default: 15)",
    )

    p = sub.add_parser("run", help="execute an algorithm under an adversary")
    p.add_argument(
        "algorithm",
        choices=["halving", "thirds", "tas-consensus", "bc-consensus", "bitwise"],
    )
    p.add_argument("--eps", type=_rational, default="1/8")
    p.add_argument(
        "--inputs",
        type=_rationals,
        default="0,1/2,1",
        help="comma-separated rationals",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crash", type=float, default=0.0)
    p.add_argument(
        "--adversary",
        default="random",
        choices=["random", "snapshot", "collect"],
        help="schedule source: seeded immediate-snapshot blocks (random), "
        "or seeded matrix schedules of the weaker models",
    )
    _add_trace_arguments(p)

    p = sub.add_parser(
        "chaos",
        help="run a randomized fault-injection campaign, or replay a trace",
        description=(
            "Execute N seeded randomized executions of an algorithm cell "
            "under crash/black-box fault injection, classify each against "
            "the cell's property oracle, and report the tally.  With "
            "--replay, re-execute a recorded trace file instead (add "
            "--shrink to delta-debug it to a locally minimal "
            "counterexample first)."
        ),
    )
    p.add_argument(
        "--algorithm",
        default="aa",
        help="campaign cell key (aa, aa2, consensus, aa-broken, "
        "consensus-broken, hang, exploding)",
    )
    p.add_argument(
        "--model",
        default="iis",
        choices=["iis", "snapshot", "collect"],
    )
    p.add_argument("-n", type=int, default=3, help="number of processes")
    p.add_argument(
        "-t", type=int, default=1, help="max crash faults per execution"
    )
    p.add_argument("--executions", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=_rational, default="1/8")
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="campaign wall-clock budget in seconds (monotonic)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit a deterministic JSON report",
    )
    p.add_argument(
        "--replay",
        metavar="TRACE_FILE",
        default=None,
        help="replay a recorded FaultTrace JSON file instead of campaigning",
    )
    p.add_argument(
        "--shrink",
        action="store_true",
        help="with --replay: minimize the trace before replaying",
    )
    p.add_argument(
        "--inject-illegal",
        default=None,
        choices=["lost-write", "stale-snapshot", "bad-box"],
        help="inject a model-illegal fault the executor must detect",
    )
    _add_trace_arguments(p)

    return parser


_COMMANDS = {
    "models": _cmd_models,
    "impossibility": _cmd_impossibility,
    "closure": _cmd_closure,
    "bounds": _cmd_bounds,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
}


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command, recording a trace when asked to.

    ``--trace`` turns the whole invocation into one traced region: the
    tracer is installed before the command runs, uninstalled afterwards
    (even on error), and the artifact is written once the command
    returns — including non-zero returns, so a failing experiment still
    leaves a trace to inspect.
    """
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return _COMMANDS[args.command](args)

    from repro.telemetry import Tracer, disable, enable, write_trace

    tracer = Tracer()
    enable(tracer)
    try:
        code = _COMMANDS[args.command](args)
    finally:
        disable()
    try:
        write_trace(trace_path, tracer)
    except OSError as exc:
        print(
            f"cannot write trace {trace_path!r}: {exc}", file=sys.stderr
        )
        return 1
    return code


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (`| head`).
        import os

        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
