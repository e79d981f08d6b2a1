"""Every audit rule must actually detect its violation.

Each test forges one deliberately broken object — a non-chromatic
complex, a non-maximal facet family, a non-monotone carrier map, a model
without solo executions, an ill-formed task, a shrinking closure — and
asserts that exactly the expected rule id fires.
Forgeries bypass the constructors on purpose (``object.__new__`` /
``from_maximal``): the auditor exists precisely to catch objects the
constructors never saw.
"""

from fractions import Fraction

import pytest

from repro.checks import AuditTarget, run_rules
from repro.checks.rules import RULES, rules_for_kind
from repro.models import ImmediateSnapshotModel, IteratedModel
from repro.models.schedules import schedule_from_blocks
from repro.tasks import approximate_agreement_task, binary_consensus_task
from repro.tasks.task import Task
from repro.topology.carrier import CarrierMap
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex


def fired_rules(targets):
    return {finding.rule_id for finding in run_rules(targets)}


def forge_simplex(vertices):
    """Build a Simplex without the chromaticity-checking constructor."""
    forged = object.__new__(Simplex)
    ordered = tuple(vertices)
    forged._vertices = ordered
    forged._hash = hash(ordered)
    return forged


class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert sorted(RULES) == [
            "AUD001",
            "AUD002",
            "AUD003",
            "AUD004",
            "AUD006",
            "AUD008",
            "AUD009",
        ]

    def test_rules_partition_by_kind(self):
        for kind in (
            "complex",
            "carrier",
            "task",
            "model",
        ):
            assert rules_for_kind(kind), f"no rules for kind {kind}"

    def test_duplicate_registration_rejected(self):
        from repro.checks.rules import audit_rule

        with pytest.raises(ValueError):
            audit_rule("AUD001", "complex", "dup")(lambda target: iter(()))


class TestComplexRules:
    def test_aud001_fires_on_non_chromatic_complex(self):
        broken = forge_simplex(
            [Vertex(1, "a"), Vertex(1, "b"), Vertex(2, "c")]
        )
        complex_ = SimplicialComplex.from_maximal([broken])
        target = AuditTarget("complex", "fixture/non-chromatic", complex_)
        findings = run_rules([target])
        assert {f.rule_id for f in findings} == {"AUD001"}
        assert "repeats a color" in findings[0].message

    def test_aud001_fires_on_non_simplex_facet(self):
        # from_maximal trusts its caller: a bare Vertex sneaks in.
        complex_ = SimplicialComplex.from_maximal([Vertex(1, "a")])
        target = AuditTarget("complex", "fixture/vertex-facet", complex_)
        findings = [
            f for f in run_rules([target]) if f.rule_id == "AUD001"
        ]
        assert findings
        assert "not a Simplex" in findings[0].message

    def test_aud002_fires_on_non_maximal_family(self):
        big = Simplex([(1, "a"), (2, "b")])
        face = Simplex([(1, "a")])
        complex_ = SimplicialComplex.from_maximal([big, face])
        target = AuditTarget("complex", "fixture/non-maximal", complex_)
        assert fired_rules([target]) == {"AUD002"}

    def test_clean_complex_passes(self):
        complex_ = SimplicialComplex([Simplex([(1, "a"), (2, "b")])])
        assert fired_rules(
            [AuditTarget("complex", "fixture/ok", complex_)]
        ) == set()


class TestCarrierRules:
    def test_aud003_fires_on_name_violation(self):
        sigma = Simplex([(1, "a"), (2, "b")])
        domain = SimplicialComplex.from_simplex(sigma)
        leaky = CarrierMap(
            domain,
            lambda s: SimplicialComplex(
                [Simplex([(3, "stray")])]
            ),
            name="leaky",
        )
        target = AuditTarget("carrier", "fixture/leaky", leaky)
        assert "AUD003" in fired_rules([target])

    def test_aud004_fires_on_non_monotone_carrier(self):
        sigma = Simplex([(1, "a"), (2, "b")])
        domain = SimplicialComplex.from_simplex(sigma)

        def delta(simplex):
            if simplex.dim == 1:
                return SimplicialComplex([Simplex([(1, "x")])])
            # Faces get an output the full simplex does not have.
            color = simplex.vertices[0].color
            return SimplicialComplex([Simplex([(color, "y")])])

        shrinking = CarrierMap(domain, delta, name="shrinking")
        target = AuditTarget(
            "carrier",
            "fixture/non-monotone",
            shrinking,
            {"expect_monotone": True},
        )
        assert "AUD004" in fired_rules([target])

    def test_aud004_skipped_without_monotone_expectation(self):
        sigma = Simplex([(1, "a"), (2, "b")])
        domain = SimplicialComplex.from_simplex(sigma)

        def delta(simplex):
            if simplex.dim == 1:
                return SimplicialComplex([Simplex([(1, "x")])])
            color = simplex.vertices[0].color
            return SimplicialComplex([Simplex([(color, "y")])])

        task_map = CarrierMap(domain, delta, name="task-style")
        # Task maps are not required to be monotone (local tasks!).
        target = AuditTarget("carrier", "fixture/task-map", task_map)
        assert "AUD004" not in fired_rules([target])


class _NoSoloModel(IteratedModel):
    """A broken model whose one-round complex forgets solo executions."""

    name = "broken-no-solo"

    def schedules(self, ids):
        # Only the fully synchronous round: every process sees everyone.
        return (schedule_from_blocks([ids]),)


class TestModelRules:
    def test_aud006_fires_on_missing_solo_execution(self):
        model = _NoSoloModel()
        sigma = Simplex([(1, "a"), (2, "b")])
        target = AuditTarget(
            "model", "fixture/no-solo", model, {"samples": (sigma,)}
        )
        findings = [
            f for f in run_rules([target]) if f.rule_id == "AUD006"
        ]
        assert findings
        assert any("solo" in f.message for f in findings)

    def test_healthy_model_passes_all_probes(self):
        model = ImmediateSnapshotModel()
        sigma = Simplex([(1, "a"), (2, "b"), (3, "c")])
        target = AuditTarget(
            "model", "fixture/healthy", model, {"samples": (sigma,)}
        )
        assert fired_rules([target]) == set()


class TestTaskAndClosureRules:
    def test_aud008_fires_on_outputs_outside_o(self):
        inputs = SimplicialComplex.from_simplex(
            Simplex([(1, 0), (2, 0)])
        )
        outputs = SimplicialComplex.from_simplex(
            Simplex([(1, 0), (2, 0)])
        )
        bad = Task(
            "escaping-outputs",
            inputs,
            outputs,
            lambda sigma: SimplicialComplex(
                [Simplex([(v.color, 9) for v in sigma.vertices])]
            ),
        )
        target = AuditTarget("task", "fixture/escaping", bad)
        findings = run_rules([target])
        assert {f.rule_id for f in findings} == {"AUD008"}

    def test_aud009_fires_when_closure_loses_outputs(self):
        base = binary_consensus_task([1, 2])
        # A fake "closure" that keeps I but forgets every legal output
        # except one monochromatic facet: Δ ⊄ Δ'.
        lossy = Task(
            "lossy-closure",
            base.input_complex,
            base.output_complex,
            lambda sigma: SimplicialComplex(
                [Simplex([(v.color, 0) for v in sigma.vertices])]
            ),
        )
        target = AuditTarget(
            "closure", "fixture/lossy", lossy, {"base_task": base}
        )
        findings = [
            f for f in run_rules([target]) if f.rule_id == "AUD009"
        ]
        assert findings
        assert "closures only grow" in findings[0].message

    def test_real_closure_passes(self):
        from repro.core.closure import ClosureComputer

        base = approximate_agreement_task([1, 2], Fraction(1, 2), 2)
        closure = ClosureComputer(base, ImmediateSnapshotModel()).as_task()
        target = AuditTarget(
            "closure", "fixture/real-closure", closure, {"base_task": base}
        )
        assert fired_rules([target]) == set()
