"""Every audit rule must actually detect its violation.

Each test forges one deliberately broken object — a non-chromatic
complex, a non-maximal facet family, a non-monotone carrier map, a
condition-violating schedule, a stale memo entry, an ill-formed task, a
shrinking closure — and asserts that exactly the expected rule id fires.
Forgeries bypass the constructors on purpose (``object.__new__`` /
``from_maximal``): the auditor exists precisely to catch objects the
constructors never saw.
"""

from fractions import Fraction

import pytest

from repro.checks import AuditTarget, Severity, run_rules
from repro.checks.rules import RULES, rules_for_kind
from repro.models import ImmediateSnapshotModel, IteratedModel
from repro.models.schedules import OneRoundSchedule, schedule_from_blocks
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


def forge_schedule(groups, views):
    """Build a OneRoundSchedule without running __post_init__."""
    forged = object.__new__(OneRoundSchedule)
    object.__setattr__(forged, "groups", tuple(groups))
    object.__setattr__(forged, "views", tuple(views))
    return forged


class TestRegistry:
    def test_all_thirteen_rules_registered(self):
        assert sorted(RULES) == [
            f"AUD00{i}" for i in range(1, 10)
        ] + [
            "AUD010",
            "AUD011",
            "AUD013",
            "AUD016",
        ]

    def test_rules_partition_by_kind(self):
        for kind in (
            "complex",
            "carrier",
            "schedule",
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
        assert findings[0].severity is Severity.ERROR
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

    def test_aud013_fires_on_corrupt_face_mask_memo(self):
        sigma = Simplex([(1, "a"), (2, "b")])
        tau = Simplex([(1, "a"), (3, "c")])
        complex_ = SimplicialComplex([sigma, tau])
        _, masks = complex_._ensure_index()
        # Corrupt the memoized face-mask set the way an aliasing bug
        # would: membership and the f-vector now disagree with the
        # stored facets, which only the reference cross-check can see.
        complex_._face_masks = {masks[0]}
        target = AuditTarget("complex", "fixture/corrupt-index", complex_)
        findings = [
            f for f in run_rules([target]) if f.rule_id == "AUD013"
        ]
        assert findings
        assert any("contains" in f.message for f in findings)
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_aud013_skips_malformed_families(self):
        # Non-chromatic facets are AUD001's finding; the parity probe
        # must not crash (or double-report) on them.
        broken = forge_simplex([Vertex(1, "a"), Vertex(1, "b")])
        complex_ = SimplicialComplex.from_maximal([broken])
        target = AuditTarget("complex", "fixture/aud001-turf", complex_)
        assert "AUD013" not in fired_rules([target])

    def test_aud016_fires_on_corrupt_mask_index(self):
        sigma = Simplex([(1, "a"), (2, "b")])
        tau = Simplex([(1, "a"), (3, "c")])
        complex_ = SimplicialComplex([sigma, tau])
        _, masks = complex_._ensure_index()
        # Drop a facet from the mask index only: the kernels (which
        # sweep masks) now see a different complex than the oracles
        # (which read the facet objects).
        complex_._masks = (masks[0],)
        target = AuditTarget("complex", "fixture/corrupt-masks", complex_)
        findings = [
            f for f in run_rules([target]) if f.rule_id == "AUD016"
        ]
        assert findings
        assert any("adjacency" in f.message for f in findings)
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_aud016_skips_malformed_families(self):
        broken = forge_simplex([Vertex(1, "a"), Vertex(1, "b")])
        complex_ = SimplicialComplex.from_maximal([broken])
        target = AuditTarget("complex", "fixture/aud001-turf", complex_)
        assert "AUD016" not in fired_rules([target])

    def test_aud016_clean_on_subdivided_complex(self, iis):
        sigma = Simplex([(1, 0), (2, 0), (3, 1)])
        protocol = iis.one_round_complex(sigma)
        target = AuditTarget("complex", "fixture/one-round", protocol)
        findings = [
            f for f in run_rules([target]) if f.rule_id == "AUD016"
        ]
        assert findings == []


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


class TestScheduleRules:
    def test_aud005_fires_on_condition_2_violation(self):
        broken = forge_schedule(
            groups=(frozenset({1, 2}),),
            views=(frozenset({1, 2, 3}),),
        )
        target = AuditTarget(
            "schedule", "fixture/bad-schedule", broken
        )
        findings = run_rules([target])
        assert {f.rule_id for f in findings} == {"AUD005"}
        assert any("condition (2)" in f.message for f in findings)

    def test_aud005_fires_on_condition_3_violation(self):
        broken = forge_schedule(
            groups=(frozenset({1}), frozenset({2})),
            views=(frozenset({1}), frozenset({2})),
        )
        findings = run_rules(
            [AuditTarget("schedule", "fixture/bad-p0", broken)]
        )
        assert any("condition (3)" in f.message for f in findings)

    def test_aud005_fires_on_false_snapshot_claim(self):
        # A valid collect schedule whose views do not chain.
        schedule = OneRoundSchedule(
            groups=(frozenset({1, 2, 3}),),
            views=(frozenset({1, 2, 3}),),
        )
        incomparable = forge_schedule(
            groups=(frozenset({1}), frozenset({2}), frozenset({3})),
            views=(
                frozenset({1, 2, 3}),
                frozenset({1, 2}),
                frozenset({1, 3}),
            ),
        )
        assert fired_rules(
            [
                AuditTarget(
                    "schedule",
                    "fixture/ok",
                    schedule,
                    {"schedule_model": "snapshot"},
                )
            ]
        ) == set()
        findings = run_rules(
            [
                AuditTarget(
                    "schedule",
                    "fixture/not-a-chain",
                    incomparable,
                    {"schedule_model": "snapshot"},
                )
            ]
        )
        assert any("chain" in f.message for f in findings)

    def test_valid_iis_schedule_passes(self):
        schedule = schedule_from_blocks([[1], [2, 3]])
        assert fired_rules(
            [
                AuditTarget(
                    "schedule",
                    "fixture/iis-ok",
                    schedule,
                    {"schedule_model": "iis"},
                )
            ]
        ) == set()


class _NoSoloModel(IteratedModel):
    """A broken model whose one-round complex forgets solo executions."""

    name = "broken-no-solo"

    def _enumerate_view_maps(self, ids):
        # Only the fully synchronous round: every process sees everyone.
        return [{i: frozenset(ids) for i in ids}]


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

    def test_aud007_fires_on_stale_memo_entry(self):
        model = ImmediateSnapshotModel()
        sigma = Simplex([(1, "a"), (2, "b")])
        model.one_round_complex(sigma)  # warm the memo honestly
        # Poison the cache the way an accidental in-place mutation would.
        model._one_round_cache[sigma] = SimplicialComplex.from_simplex(sigma)
        target = AuditTarget("model", "fixture/stale-memo", model, {})
        findings = run_rules([target])
        assert {f.rule_id for f in findings} == {"AUD007"}
        assert "stale memo entry" in findings[0].message

    def test_aud007_clean_after_honest_warmup(self):
        model = ImmediateSnapshotModel()
        sigma = Simplex([(1, "a"), (2, "b")])
        model.one_round_complex(sigma)
        model.view_maps(sigma.ids)
        target = AuditTarget("model", "fixture/warm", model, {})
        assert fired_rules([target]) == set()

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
        from repro.core.closure import closure_task

        base = approximate_agreement_task([1, 2], Fraction(1, 2), 2)
        closure = closure_task(base, ImmediateSnapshotModel())
        target = AuditTarget(
            "closure", "fixture/real-closure", closure, {"base_task": base}
        )
        assert fired_rules([target]) == set()


class TestFaultsConfigRule:
    @staticmethod
    def _target(config):
        return AuditTarget("faults-config", "fixture/chaos-config", config)

    def test_aud010_fires_on_unknown_cell(self):
        from repro.faults.campaign import CampaignConfig

        target = self._target(CampaignConfig(cell="nonsense"))
        findings = run_rules([target])
        assert {f.rule_id for f in findings} == {"AUD010"}
        assert "unknown chaos cell" in findings[0].message

    def test_aud010_fires_on_bad_probability(self):
        from dataclasses import replace

        from repro.faults.campaign import CampaignConfig

        config = replace(CampaignConfig(), crash_probability=1.5)
        assert "AUD010" in fired_rules([self._target(config)])

    def test_aud010_fires_on_unsupported_model(self):
        from repro.faults.campaign import CampaignConfig

        # Black-box cells are IIS-only: matrix schedules have no blocks.
        config = CampaignConfig(cell="consensus", model="collect")
        assert "AUD010" in fired_rules([self._target(config)])

    def test_aud010_fires_on_total_crash_budget(self):
        from repro.faults.campaign import CampaignConfig

        config = CampaignConfig(cell="aa", n=3, t=3)
        assert "AUD010" in fired_rules([self._target(config)])

    def test_aud010_fires_on_ungated_illegal_injector(self):
        from repro.faults.campaign import CampaignConfig

        config = CampaignConfig(cell="aa", illegal="lost-write")
        findings = [
            f
            for f in run_rules([self._target(config)])
            if f.rule_id == "AUD010"
        ]
        assert findings
        assert "allow_illegal" in findings[0].message

    def test_sound_config_passes(self):
        from repro.faults.campaign import CampaignConfig

        target = self._target(CampaignConfig(cell="aa", n=3, t=1))
        assert fired_rules([target]) == set()
