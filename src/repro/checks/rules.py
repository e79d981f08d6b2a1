"""Domain invariant audit rules over live objects.

The paper's machinery rests on structural side conditions that the data
types only partially enforce at construction time — and that the trusted
fast path ``SimplicialComplex.from_maximal`` deliberately skips.  This
module turns each side condition into a composable :class:`AuditRule`
that inspects live objects and reports
:class:`~repro.checks.findings.Finding` records instead of raising, so a
single run can surface every violation at once.

Rule catalog
------------

========  =========  ====================================================
rule id   kind       invariant
========  =========  ====================================================
AUD001    complex    chromaticity: every simplex carries pairwise
                     distinct integer colors (Appendix A.1)
AUD002    complex    facet maximality: no stored facet is a face of
                     another (the ``from_maximal`` contract)
AUD003    carrier    name preservation: ``Δ(σ)`` only uses the colors of
                     ``σ``
AUD004    carrier    monotonicity: ``σ' ⊆ σ ⟹ Δ(σ') ⊆ Δ(σ)`` (only for
                     maps declared monotone)
AUD006    model      one-round structure: ``P^(1)(σ)`` is pure of
                     dimension ``|σ|−1`` on ``ID(σ)``, contains the solo
                     executions, and is idempotent on solo views
                     (``P^(1)({v}) = {solo(v)}``)
AUD008    task       task well-formedness: ``Δ(σ)`` is chromatic and
                     contained in the output complex
AUD009    closure    closure well-formedness (Theorem 1): ``Δ ⊆ Δ'`` and
                     ``Δ'`` is name-preserving
========  =========  ====================================================

Each rule applies to one *kind* of :class:`AuditTarget`; the driver in
:mod:`repro.checks.audit` matches targets to rules by kind.  Chaos
campaign configurations have no rule: every campaign the program runs
passes through ``CampaignConfig.validate``, their single gate.  Nor do
properties a tier-1 suite already gates: the schedule pools' snapshot and
immediate-snapshot claims (``tests/models/test_schedules.py``), one-round
memo coherence (``tests/models/test_caching.py``) and bitmask-core parity
with :mod:`repro.topology.reference` (``tests/topology/test_bitmask_core.py``).
Recorded trace artifacts have no rule either:
:func:`~repro.telemetry.export.load_trace` validates every one it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

from repro.checks.findings import Finding
from repro.errors import ReproError
from repro.models.base import ComputationModel
from repro.tasks.task import Task
from repro.topology.carrier import CarrierMap
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

__all__ = [
    "AuditTarget",
    "AuditRule",
    "RULES",
    "audit_rule",
    "rules_for_kind",
    "run_rules",
]


@dataclass(frozen=True)
class AuditTarget:
    """One live object submitted to the auditor.

    Attributes
    ----------
    kind:
        What the object is: ``complex``, ``carrier``, ``task``,
        ``model`` or ``closure``.  Rules declare the kind they audit.
    path:
        Stable human-readable location, e.g. ``tasks/aa[n=2]/Δ``.
    obj:
        The object itself.
    extras:
        Rule-specific context: sample simplices for model probes
        (``samples``), the monotonicity expectation for carrier maps
        (``expect_monotone``), the base task of a closure
        (``base_task``).
    """

    kind: str
    path: str
    obj: Any
    extras: Mapping[str, Any] = field(default_factory=dict)


Checker = Callable[[AuditTarget], Iterator[Finding]]


@dataclass(frozen=True)
class AuditRule:
    """One named, composable invariant check."""

    rule_id: str
    kind: str
    title: str
    check: Checker

    def run(self, target: AuditTarget) -> list[Finding]:
        """Run the rule on a matching target, collecting its findings."""
        return list(self.check(target))


RULES: dict[str, AuditRule] = {}


def audit_rule(
    rule_id: str, kind: str, title: str
) -> Callable[[Checker], Checker]:
    """Register a checker function as the audit rule ``rule_id``."""

    def register(function: Checker) -> Checker:
        if rule_id in RULES:
            raise ValueError(f"duplicate audit rule id {rule_id!r}")
        RULES[rule_id] = AuditRule(rule_id, kind, title, function)
        return function

    return register


def rules_for_kind(kind: str) -> list[AuditRule]:
    """The registered rules applying to targets of the given kind."""
    return [rule for rule in RULES.values() if rule.kind == kind]


def run_rules(targets: Sequence[AuditTarget]) -> list[Finding]:
    """Run every applicable rule on every target."""
    findings: list[Finding] = []
    for target in targets:
        for rule in rules_for_kind(target.kind):
            findings.extend(rule.run(target))
    return findings


# ----------------------------------------------------------------------
# Complex rules
# ----------------------------------------------------------------------
@audit_rule("AUD001", "complex", "complexes are chromatic")
def check_complex_chromaticity(target: AuditTarget) -> Iterator[Finding]:
    """Every facet must carry pairwise-distinct integer colors.

    The :class:`Simplex` constructor enforces this, but interning bugs or
    forged objects (``object.__new__``) can corrupt it; the audit re-walks
    the raw vertex tuples.
    """
    complex_: SimplicialComplex = target.obj
    for facet in complex_.facets:
        if not isinstance(facet, Simplex):
            # from_maximal trusts its caller and will happily intern a
            # bare Vertex (or anything hashable) as a "facet".
            yield Finding(
                "AUD001",
                target.path,
                f"stored facet {facet!r} is a "
                f"{type(facet).__name__}, not a Simplex (from_maximal "
                "accepted a malformed family)",
            )
            continue
        colors = [v.color for v in facet.vertices]
        if any(not isinstance(c, int) for c in colors):
            yield Finding(
                "AUD001",
                target.path,
                f"facet {facet!r} carries a non-integer color",
            )
        elif len(set(colors)) != len(colors):
            yield Finding(
                "AUD001",
                target.path,
                f"facet {facet!r} repeats a color: {sorted(colors)}",
            )


@audit_rule("AUD002", "complex", "stored facets are inclusion-maximal")
def check_facet_maximality(target: AuditTarget) -> Iterator[Finding]:
    """No stored facet may be a face of another stored facet.

    A violation means some construction site passed a non-maximal family
    to ``SimplicialComplex.from_maximal``, which corrupts every
    facet-based accessor (dimension, purity, f-vector, equality).
    """
    complex_: SimplicialComplex = target.obj
    # Non-Simplex entries are AUD001's problem; skip them here.
    facets = sorted(
        (f for f in complex_.facets if isinstance(f, Simplex)), key=len
    )
    vertex_sets = [frozenset(f.vertices) for f in facets]
    for i, small in enumerate(vertex_sets):
        for j in range(i + 1, len(vertex_sets)):
            if small < vertex_sets[j]:
                yield Finding(
                    "AUD002",
                    target.path,
                    f"facet {facets[i]!r} is a proper face of "
                    f"{facets[j]!r}; the stored family is not maximal "
                    "(from_maximal contract violated)",
                )
                break


# ----------------------------------------------------------------------
# Carrier map rules
# ----------------------------------------------------------------------
@audit_rule("AUD003", "carrier", "carrier maps preserve names")
def check_carrier_chromatic(target: AuditTarget) -> Iterator[Finding]:
    """``Δ(σ)`` may only mention the colors (process names) of ``σ``."""
    carrier: CarrierMap = target.obj
    for simplex in carrier.domain:
        try:
            image = carrier(simplex)
        except ReproError as exc:
            yield Finding(
                "AUD003",
                target.path,
                f"carrier map undefined on {simplex!r}: {exc}",
            )
            continue
        stray = image.ids - simplex.ids
        if stray:
            yield Finding(
                "AUD003",
                target.path,
                f"image of {simplex!r} uses colors {sorted(stray)} "
                "outside ID(σ)",
            )


@audit_rule("AUD004", "carrier", "declared-monotone carrier maps are monotone")
def check_carrier_monotone(target: AuditTarget) -> Iterator[Finding]:
    """``σ' ⊆ σ ⟹ Δ(σ') ⊆ Δ(σ)`` for maps declared monotone.

    Task maps are *not* required to be monotone (local tasks are not), so
    the rule only audits targets whose ``expect_monotone`` extra is true.
    """
    if not target.extras.get("expect_monotone", False):
        return
    carrier: CarrierMap = target.obj
    for simplex in carrier.domain:
        big = carrier(simplex).simplices
        for face in simplex.proper_faces():
            small = carrier(face).simplices
            if not small <= big:
                missing = next(iter(small - big))
                yield Finding(
                    "AUD004",
                    target.path,
                    f"not monotone: {face!r} ⊆ {simplex!r} but the face's "
                    f"image contains {missing!r}, absent from the "
                    "simplex's image",
                )
                return


# ----------------------------------------------------------------------
# Model rules
# ----------------------------------------------------------------------
@audit_rule("AUD006", "model", "one-round complexes are well-structured")
def check_model_one_round(target: AuditTarget) -> Iterator[Finding]:
    """Structure of ``P^(1)(σ)`` on the target's sample simplices.

    Checks, per sample ``σ``: the complex is pure of dimension
    ``|σ| − 1``; its colors are exactly ``ID(σ)``; every process has a
    solo execution (the speedup theorem's hypothesis); and the protocol
    operator is *idempotent on solo views* — one round of a single
    process yields exactly the solo vertex, so re-running a solo round
    never invents information.
    """
    model: ComputationModel = target.obj
    samples: Sequence[Simplex] = target.extras.get("samples", ())
    for sigma in samples:
        prefix = f"{target.path}/P1({sigma!r})"
        complex_ = model.one_round_complex(sigma)
        if not complex_.is_pure() or complex_.dim != sigma.dim:
            yield Finding(
                "AUD006",
                prefix,
                f"P^(1)(σ) must be pure of dimension {sigma.dim}, got "
                f"dim {complex_.dim} (pure={complex_.is_pure()})",
            )
        if complex_.ids != sigma.ids:
            yield Finding(
                "AUD006",
                prefix,
                f"P^(1)(σ) colors {sorted(complex_.ids)} differ from "
                f"ID(σ) = {sorted(sigma.ids)}",
            )
        for vertex in sigma.vertices:
            solo = model.solo_vertex(vertex)
            if solo not in complex_.vertices:
                yield Finding(
                    "AUD006",
                    prefix,
                    f"no solo execution for process {vertex.color}: "
                    f"{solo!r} is not a vertex of P^(1)(σ)",
                )
            singleton = Simplex([vertex])
            solo_complex = model.one_round_complex(singleton)
            expected = SimplicialComplex.from_simplex(Simplex([solo]))
            if solo_complex != expected:
                yield Finding(
                    "AUD006",
                    prefix,
                    f"operator not idempotent on solo views: "
                    f"P^(1)({{{vertex!r}}}) has "
                    f"{len(solo_complex.facets)} facets instead of the "
                    "single solo vertex",
                )


# ----------------------------------------------------------------------
# Task and closure rules
# ----------------------------------------------------------------------
@audit_rule("AUD008", "task", "task triples are well-formed")
def check_task_well_formed(target: AuditTarget) -> Iterator[Finding]:
    """``Δ(σ)`` must be chromatic and contained in the output complex."""
    task: Task = target.obj
    for sigma in task.input_complex:
        try:
            allowed = task.delta(sigma)
        except ReproError as exc:
            yield Finding(
                "AUD008",
                target.path,
                f"Δ undefined on {sigma!r}: {exc}",
            )
            continue
        stray_colors = allowed.ids - sigma.ids
        if stray_colors:
            yield Finding(
                "AUD008",
                target.path,
                f"Δ({sigma!r}) uses colors {sorted(stray_colors)} "
                "outside ID(σ)",
            )
        stray = allowed.simplices - task.output_complex.simplices
        if stray:
            sample = next(iter(stray))
            yield Finding(
                "AUD008",
                target.path,
                f"Δ({sigma!r}) contains {sample!r}, which is not a "
                "simplex of the output complex",
            )


@audit_rule("AUD009", "closure", "closures contain their base task")
def check_closure_well_formed(target: AuditTarget) -> Iterator[Finding]:
    """Theorem 1 well-formedness of a materialized closure ``CL_M(Π)``.

    The closure must keep the inputs of ``Π``, satisfy ``Δ(σ) ⊆ Δ'(σ)``
    (the remark after Definition 2), and stay name-preserving.  The
    target object is the closure *task*; the ``base_task`` extra is the
    task it was derived from, and the optional ``samples`` extra bounds
    the sweep.
    """
    closure: Task = target.obj
    base: Optional[Task] = target.extras.get("base_task")
    if base is None:
        return
    if closure.input_complex != base.input_complex:
        yield Finding(
            "AUD009",
            target.path,
            "closure changed the input complex (Definition 2 keeps I)",
        )
        return
    samples = target.extras.get("samples")
    pool = list(samples) if samples is not None else list(base.input_complex)
    for sigma in pool:
        allowed = base.delta(sigma)
        prime = closure.delta(sigma)
        if not prime.ids <= sigma.ids:
            yield Finding(
                "AUD009",
                target.path,
                f"Δ'({sigma!r}) uses colors outside ID(σ)",
            )
        missing = allowed.simplices - prime.simplices
        if missing:
            sample = next(iter(missing))
            yield Finding(
                "AUD009",
                target.path,
                f"Δ({sigma!r}) ⊄ Δ'({sigma!r}): lost legal output "
                f"{sample!r} (closures only grow, Definition 2)",
            )
