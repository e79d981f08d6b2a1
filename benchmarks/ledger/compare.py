"""Compare two ledger outputs metric by metric.

Usage: ``python benchmarks/ledger/compare.py A.json B.json``

``A`` is the base (the parent commit), ``B`` the change.  For every
workload and end-to-end metric it prints both medians with their
quartiles and the ratio ``B/A`` with its base, and labels the pair:

* ``unresolved`` when either side's spread (quartile distance over the
  median) is wider than the metric's bound in ``BENCHMARK.json`` —
  unless every sample of one side reads better than every sample of the
  other, which makes it ``better`` or ``worse`` regardless;
* ``worse`` / ``better`` when the medians differ by more than the bound;
* ``unchanged`` otherwise.

Exits 1 if any pair is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def label(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    """Classify the change from ``a`` to ``b`` for one metric."""
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    spread = max(
        (side["q3"] - side["q1"]) / side["value"] for side in (a, b)
    )
    if spread > bound:
        worst_b = max(sign * x for x in b["samples"])
        best_b = min(sign * x for x in b["samples"])
        if worst_b < min(sign * x for x in a["samples"]):
            return "better"
        if best_b > max(sign * x for x in a["samples"]):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(base: dict, change: dict, metrics: list[dict]) -> list[str]:
    """One line per (workload, end-to-end metric) present in both."""
    lines = []
    for workload, a_summary in base["workloads"].items():
        b_summary = change["workloads"].get(workload)
        if b_summary is None:
            continue
        for spec in metrics:
            name = spec["name"]
            a = a_summary["end_to_end"].get(name)
            b = b_summary["end_to_end"].get(name)
            if a is None or b is None:
                continue
            verdict = label(a, b, spec["bound"], spec["better"] == "lower")
            lines.append(
                f"{workload:<13} {name:<12} "
                f"A={a['value']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] "
                f"B={b['value']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] "
                f"B/A={b['value'] / a['value']:.4f} "
                f"(base A={a['value']:.6g} {spec['unit']}) "
                f"bound={spec['bound']} {verdict}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change = (
        json.loads(Path(p).read_text(encoding="utf-8")) for p in argv
    )
    bench = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    for side, data in (("A", base), ("B", change)):
        stamp = data["provenance"]
        print(
            f"# {side}: rev={stamp['git_rev']} dirty={stamp['dirty']} "
            f"seed={stamp['seed']} date={stamp['date']}"
        )
    lines = compare(base, change, bench["end_to_end"])
    print("\n".join(lines))
    return 1 if any(line.endswith(" worse") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
