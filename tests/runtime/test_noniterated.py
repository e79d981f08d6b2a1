"""Tests for the non-iterated executor and phase-filtered halving AA."""

import hashlib
from fractions import Fraction

import pytest

from repro.algorithms import HalvingAA, NonIteratedHalvingAA
from repro.errors import FaultInjectionError, RuntimeModelError
from repro.runtime import NonIteratedExecutor, RegisterArray


def F(num, den=1):
    return Fraction(num, den)


INPUTS = {1: F(0), 2: F(1, 2), 3: F(1)}


class TestExecutorBasics:
    def test_everyone_decides(self):
        result = NonIteratedExecutor(seed=0).run(HalvingAA(F(1, 4)), INPUTS)
        assert sorted(result.decisions) == [1, 2, 3]

    def test_deterministic_per_seed(self):
        left = NonIteratedExecutor(seed=9).run(HalvingAA(F(1, 4)), INPUTS)
        right = NonIteratedExecutor(seed=9).run(HalvingAA(F(1, 4)), INPUTS)
        assert left.decisions == right.decisions

    def test_empty_inputs_rejected(self):
        with pytest.raises(RuntimeModelError):
            NonIteratedExecutor().run(HalvingAA(F(1, 2)), {})

    def test_lost_write_caught_by_writer_reread(self, monkeypatch):
        class LosesWriteOfTwo(RegisterArray):
            def write(self, process, value):
                if process != 2:
                    super().write(process, value)

        monkeypatch.setattr(
            "repro.runtime.noniterated.RegisterArray", LosesWriteOfTwo
        )
        with pytest.raises(FaultInjectionError, match="process 2"):
            NonIteratedExecutor(seed=0).run(HalvingAA(F(1, 4)), INPUTS)

    def test_observations_cover_all_phases(self):
        algorithm = HalvingAA(F(1, 4))
        result = NonIteratedExecutor(seed=1).run(algorithm, INPUTS)
        per_process = {}
        for obs in result.observations:
            per_process.setdefault(obs.process, []).append(obs.phase)
        for phases in per_process.values():
            assert phases == list(range(1, algorithm.rounds + 1))

    def test_outputs_stay_in_range(self):
        for seed in range(100):
            result = NonIteratedExecutor(seed=seed).run(
                HalvingAA(F(1, 4)), INPUTS
            )
            for value in result.decisions.values():
                assert F(0) <= value <= F(1)


class TestSynchronizedMode:
    def test_skew_at_most_one(self):
        # Phase barriers align progress, but a collect may still return the
        # previous-phase value of a process that has not written the
        # current phase yet — the residual non-iterated effect.
        for seed in range(30):
            result = NonIteratedExecutor(seed=seed, synchronized=True).run(
                HalvingAA(F(1, 4)), INPUTS
            )
            assert result.max_phase_skew() <= 1

    def test_even_synchronized_runs_can_violate_epsilon(self):
        # The crucial difference from the iterated model: an iterated
        # round-r collect of an unwritten register returns nothing, but the
        # non-iterated register exposes the stale round-(r-1) value.  That
        # alone breaks the round-indexed halving map on some schedules —
        # structurally hiding stale values is what the iterated model buys.
        eps = F(1, 4)
        violations = 0
        for seed in range(200):
            result = NonIteratedExecutor(seed=seed, synchronized=True).run(
                HalvingAA(eps), INPUTS
            )
            values = list(result.decisions.values())
            if max(values) - min(values) > eps:
                violations += 1
        assert violations > 0

    def test_phase_filter_repairs_synchronized_mode_too(self):
        eps = F(1, 4)
        for seed in range(200):
            result = NonIteratedExecutor(seed=seed, synchronized=True).run(
                NonIteratedHalvingAA(eps), INPUTS
            )
            values = list(result.decisions.values())
            assert max(values) - min(values) <= eps


class TestAsynchronousSkew:
    def test_skew_actually_occurs(self):
        skews = set()
        for seed in range(100):
            result = NonIteratedExecutor(seed=seed).run(
                HalvingAA(F(1, 8)), INPUTS
            )
            skews.add(result.max_phase_skew())
        assert max(skews) >= 1  # genuinely non-iterated behavior

    def test_plain_halving_breaks_under_asynchrony(self):
        # The E21 finding: stale reads defeat the round-indexed ε_r.
        eps = F(1, 4)
        violations = 0
        for seed in range(500):
            result = NonIteratedExecutor(seed=seed).run(
                HalvingAA(eps), INPUTS
            )
            values = list(result.decisions.values())
            if max(values) - min(values) > eps:
                violations += 1
        assert violations > 0

    def test_phase_filtered_halving_is_robust(self):
        eps = F(1, 4)
        algorithm = NonIteratedHalvingAA(eps)
        for seed in range(500):
            result = NonIteratedExecutor(seed=seed).run(algorithm, INPUTS)
            values = list(result.decisions.values())
            assert max(values) - min(values) <= eps
            assert all(F(0) <= v <= F(1) for v in values)

    def test_filtered_variant_declares_phase_awareness(self):
        assert NonIteratedHalvingAA(F(1, 2)).phase_aware
        assert not getattr(HalvingAA(F(1, 2)), "phase_aware", False)


def _interleaving_digest(algorithm, synchronized):
    digest = hashlib.sha256()
    for seed in range(50):
        result = NonIteratedExecutor(seed=seed, synchronized=synchronized).run(
            algorithm, INPUTS
        )
        record = (
            result.decisions,
            [
                (o.process, o.phase, sorted(o.seen.items()))
                for o in result.observations
            ],
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


class TestInterleavingPins:
    """The exact interleavings of E21's four sweeps, seeds 0–49.

    A change to the runnable set's order, to the RNG draws or to which
    values a collect returns changes these digests, which a comparison
    of two runs of the same code cannot see.
    """

    @pytest.mark.parametrize(
        "algorithm, synchronized, digest",
        [
            (
                HalvingAA, False,
                "27f073e596c121462a83a09b1b98248595cb48b56c823b0ca76b421b392254a9",
            ),
            (
                HalvingAA, True,
                "5aa07c00f397625678bd403528f40f6af33d63fb1d77599d08b52e9b9fd40e30",
            ),
            (
                NonIteratedHalvingAA, False,
                "e1f24de4bb9acfa0e9544a577e290dc34880532d2c891460cf40ce00336cdc34",
            ),
            (
                NonIteratedHalvingAA, True,
                "af4a4c496ab899c0bec297fa39db170c931bdc3a2636e9a206f5aa088f7cc186",
            ),
        ],
    )
    def test_digest(self, algorithm, synchronized, digest):
        assert _interleaving_digest(algorithm(F(1, 4)), synchronized) == digest
