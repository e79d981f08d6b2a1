"""Benchmark-harness plumbing.

Every benchmark regenerates one of the paper's evaluation artifacts
(figure, claim, corollary, or theorem — see the per-experiment index in
DESIGN.md), asserts the reproduced *shape*, and records a paper-vs-measured
table under ``benchmarks/results/`` so EXPERIMENTS.md can cite it.
Timings are recorded in one place only: the performance ledger in
``benchmarks/ledger/``.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Write a rendered experiment table to results/<experiment>.txt."""

    def write(experiment_id: str, text: str) -> None:
        path = results_dir / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return write
