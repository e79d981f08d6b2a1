"""Tests for the metrics registry and its cache counters."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import ClosureComputer
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.models import ImmediateSnapshotModel, ProtocolOperator
from repro.tasks import approximate_agreement_task
from repro.telemetry import MetricsRegistry, default_registry
from repro.telemetry.metrics import CacheCounter
from repro.topology import SimplicialComplex, Simplex, is_connected


class TestCacheCounter:
    def test_hits_and_misses(self):
        tally = CacheCounter("memo")
        tally.hit()
        tally.miss()
        tally.built()
        assert (tally.hits, tally.misses) == (1, 2)


class TestRegistry:
    def test_fetch_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.cache("c") is registry.cache("c")

    def test_snapshot_flattens_cumulative_metrics(self):
        registry = MetricsRegistry()
        cache = registry.cache("memo")
        cache.hit()
        cache.miss()
        registry.cache("idle")
        assert registry.snapshot() == {
            "cache:memo:hits": 1,
            "cache:memo:misses": 1,
            "cache:idle:hits": 0,
            "cache:idle:misses": 0,
        }

    def test_delta_omits_unchanged(self):
        registry = MetricsRegistry()
        registry.cache("a").hit()
        registry.cache("b").hit()
        before = registry.snapshot()
        registry.cache("a").miss()
        delta = MetricsRegistry.delta(before, registry.snapshot())
        assert delta == {"cache:a:misses": 1}

    def test_cache_delta_shape(self):
        registry = MetricsRegistry()
        tally = registry.cache("sample")
        registry.cache("untouched")
        before = registry.snapshot()
        tally.hit()
        tally.miss()
        registry.cache("fresh").hit()
        delta = registry.delta(before, registry.snapshot())
        assert delta == {
            "cache:sample:hits": 1,
            "cache:sample:misses": 1,
            "cache:fresh:hits": 1,
        }


def _edge():
    return Simplex([(1, "a"), (2, "b")])


def _closure_decision():
    task = approximate_agreement_task([1, 2], Fraction(1, 2), 2)
    sigma = next(iter(task.input_complex.simplices_of_dim(1)))
    ClosureComputer(task, ImmediateSnapshotModel()).legal_outputs(sigma)


#: Every counter the program registers, under the exact name its reader
#: uses, with one small operation that must tick it.  The readers are the
#: ledger's per-layer metrics (benchmarks/ledger/tracing.py) and E22's
#: committed counter table (benchmarks/results/E22_cache_stats.txt); a
#: renamed counter would otherwise read there as a silent zero.
READ_COUNTERS = {
    # ledger models.one_round.hit_rate; E22
    "one-round-complex[iterated-immediate-snapshot]": (
        lambda: ImmediateSnapshotModel().one_round_complex(_edge())
    ),
    # ledger protocol.of_simplex.hit_rate; E22
    "protocol-operator.of-simplex": (
        lambda: ProtocolOperator(ImmediateSnapshotModel()).of_simplex(
            _edge(), 1
        )
    ),
    # ledger closure.membership.decisions and .hit_rate
    "closure.membership": _closure_decision,
    # ledger faults.trials
    "faults.campaign.executions": (
        lambda: run_campaign(
            CampaignConfig(cell="aa", n=2, executions=1, seed=0)
        )
    ),
    # ledger topology.kernels.component_sweeps
    "kernels.component-sweeps": (
        lambda: is_connected(SimplicialComplex([_edge()]))
    ),
    # ledger topology.complex.pruned_builds; E22
    "simplicial-complex.pruned-builds": (
        lambda: SimplicialComplex([_edge()])
    ),
    # E22
    "simplicial-complex.trusted-builds": (
        lambda: SimplicialComplex.from_simplex(_edge())
    ),
}


class TestCountersWithReaders:
    @pytest.mark.parametrize("name", sorted(READ_COUNTERS))
    def test_counter_ticks_under_its_read_name(self, name):
        registry = default_registry()
        before = registry.snapshot()
        READ_COUNTERS[name]()
        delta = registry.delta(before, registry.snapshot())
        ticks = delta.get(f"cache:{name}:hits", 0) + delta.get(
            f"cache:{name}:misses", 0
        )
        assert ticks > 0, sorted(delta)

    def test_every_registered_counter_has_a_reader(self):
        # A fresh process: the test run's own counters stay out of it.
        # Importing every module registers the module-level counters;
        # building one model registers its per-instance counter.
        script = (
            "import importlib, pkgutil, repro\n"
            "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(module.name)\n"
            "from repro.models import ImmediateSnapshotModel\n"
            "from repro.topology import Simplex\n"
            "ImmediateSnapshotModel().one_round_complex(Simplex([(1, 0)]))\n"
            "from repro.telemetry import default_registry\n"
            "for key in default_registry().snapshot():\n"
            "    print(key)\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        registered = {
            key[len("cache:"):].rsplit(":", 1)[0]
            for key in completed.stdout.split()
        }
        assert registered == set(READ_COUNTERS)
