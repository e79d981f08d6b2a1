"""Domain invariant audit rules over live objects.

The paper's machinery rests on structural side conditions that the data
types only partially enforce at construction time — and that trusted fast
paths (``SimplicialComplex.from_maximal``, ``check=False`` maps, the
memoization layer) deliberately skip.  This module turns each side
condition into a composable :class:`AuditRule` that inspects live objects
and reports :class:`~repro.checks.findings.Finding` records instead of
raising, so a single run can surface every violation at once.

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
AUD005    schedule   the matrix conditions (1)–(5) of Appendix A.3.4,
                     plus the snapshot chain / immediate-snapshot
                     conditions when the schedule claims them
AUD006    model      one-round structure: ``P^(1)(σ)`` is pure of
                     dimension ``|σ|−1`` on ``ID(σ)``, contains the solo
                     executions, and is idempotent on solo views
                     (``P^(1)({v}) = {solo(v)}``)
AUD007    model      memo coherence: every cached one-round complex and
                     view-map table equals a freshly built one
AUD008    task       task well-formedness: ``Δ(σ)`` is chromatic and
                     contained in the output complex
AUD009    closure    closure well-formedness (Theorem 1): ``Δ ⊆ Δ'`` and
                     ``Δ'`` is name-preserving
AUD010    faults-    chaos campaign configuration soundness: known cell,
          config     supported model, probabilities in range, crash
                     budget ``0 ≤ t < n``, illegal injectors gated behind
                     ``allow_illegal``
AUD011    trace      telemetry trace artifact well-formedness: every
                     span closed with numeric ``start ≤ end``, children
                     nested within their parent's interval, attributes
                     JSON-serializable, metric deltas numeric
AUD013    complex    bitmask-core parity: pruning, containment,
                     ``proj``/``star``/``skeleton``, ``union``/
                     ``intersection`` and the f-vector computed through
                     the mask index equal the retained object-set
                     reference algorithms on the live complex
AUD016    complex    mask-kernel parity: 1-skeleton adjacency,
                     connected components, shortest paths, ridge
                     incidence, the pseudomanifold test, and the
                     boundary complex computed by the mask-sweep
                     kernels equal the object-set oracles of
                     ``topology/reference.py`` on the live complex
========  =========  ====================================================

Each rule applies to one *kind* of :class:`AuditTarget`; the driver in
:mod:`repro.checks.audit` matches targets to rules by kind.
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

from repro.checks.findings import Finding, Severity
from repro.errors import ReproError
from repro.models.base import ComputationModel, IteratedModel
from repro.models.schedules import OneRoundSchedule
from repro.tasks.task import Task
from repro.topology.carrier import CarrierMap
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

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
        What the object is: ``complex``, ``carrier``, ``schedule``,
        ``task``, ``model``, or ``closure``.  Rules declare the kind they
        audit.
    path:
        Stable human-readable location, e.g. ``E7/task[ε-AA]/Δ``.
    obj:
        The object itself.
    extras:
        Rule-specific context: sample simplices for model probes
        (``samples``), the monotonicity expectation for carrier maps
        (``expect_monotone``), the claimed schedule model
        (``schedule_model``), the base task of a closure (``base_task``).
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
                Severity.ERROR,
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
                Severity.ERROR,
                target.path,
                f"facet {facet!r} carries a non-integer color",
            )
        elif len(set(colors)) != len(colors):
            yield Finding(
                "AUD001",
                Severity.ERROR,
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
                    Severity.ERROR,
                    target.path,
                    f"facet {facets[i]!r} is a proper face of "
                    f"{facets[j]!r}; the stored family is not maximal "
                    "(from_maximal contract violated)",
                )
                break


@audit_rule(
    "AUD013",
    "complex",
    "bitmask core agrees with the object-set reference",
)
def check_bitmask_reference_parity(
    target: AuditTarget,
) -> Iterator[Finding]:
    """Cross-check the mask index against the retained seed algorithms.

    The bitmask-native core answers pruning, membership, projection,
    star, skeleton, union, intersection, and f-vector queries through
    integer masks; :mod:`repro.topology.reference` keeps the seed
    object-set implementations.  This probe runs both on the live
    complex and requires identical answers — a divergence means the mask
    index (or a trusted constructor feeding it) is corrupt even though
    every individual facet looks healthy.

    Malformed families (non-``Simplex`` facets, repeated or non-integer
    colors) are AUD001's findings and are skipped here; oversized
    complexes are audited on a deterministic 64-facet subfamily so the
    reference side stays affordable.
    """
    from repro.topology import reference

    complex_: SimplicialComplex = target.obj
    facets = list(complex_.facets)
    if not facets:
        return
    for facet in facets:
        if not isinstance(facet, Simplex):
            return
        colors = [v.color for v in facet.vertices]
        if any(not isinstance(c, int) for c in colors):
            return
        if len(set(colors)) != len(colors):
            return

    def mismatch(operation: str, detail: str) -> Finding:
        return Finding(
            "AUD013",
            Severity.ERROR,
            target.path,
            f"bitmask/{operation} disagrees with the object-set "
            f"reference: {detail}",
        )

    ordered = sorted(facets, key=lambda s: s._sort_key())
    if len(ordered) > 64:
        # A subfamily of an inclusion-maximal family is still maximal.
        ordered = ordered[:64]
        live = SimplicialComplex.from_maximal(ordered)
    else:
        live = complex_
    family = frozenset(ordered)

    candidates = [face for facet in ordered for face in facet.faces()]
    repruned = SimplicialComplex(candidates).facets
    expected = reference.prune_reference(candidates)
    if repruned != expected:
        yield mismatch(
            "prune",
            f"{len(repruned)} facets vs {len(expected)} from the "
            "reference pruning pass",
        )

    for facet in ordered[:8]:
        for face in facet.faces():
            if (face in live) != reference.contains_reference(
                family, face
            ):
                yield mismatch(
                    "contains", f"membership of {face!r} diverges"
                )
                break
        vertex = facet.vertices[0]
        absent = Vertex(vertex.color, ("aud013-absent", vertex.value))
        probe = Simplex(
            (absent,) + facet.vertices[1:]
        )
        if (probe in live) != reference.contains_reference(family, probe):
            yield mismatch(
                "contains", f"membership of absent {probe!r} diverges"
            )

    colors = sorted(live.ids)
    for keep in (colors[:1], colors[1:], colors):
        if not keep:
            continue
        if live.proj(keep).facets != reference.proj_reference(
            family, keep
        ):
            yield mismatch("proj", f"projection onto {keep} diverges")

    star_vertex = ordered[0].vertices[0]
    if live.star(star_vertex).facets != reference.star_reference(
        family, star_vertex
    ):
        yield mismatch("star", f"star of {star_vertex!r} diverges")

    k = live.dim - 1
    if live.skeleton(k).facets != reference.skeleton_reference(family, k):
        yield mismatch("skeleton", f"{k}-skeleton diverges")

    left, right = ordered[::2], ordered[1::2]
    if left and right:
        left_complex = SimplicialComplex.from_maximal(left)
        right_complex = SimplicialComplex.from_maximal(right)
        if left_complex.union(
            right_complex
        ).facets != reference.union_reference(left, right):
            yield mismatch("union", "facet-half union diverges")
        small_left, small_right = left[:6], right[:6]
        if SimplicialComplex.from_maximal(small_left).intersection(
            SimplicialComplex.from_maximal(small_right)
        ).facets != reference.intersection_reference(
            small_left, small_right
        ):
            yield mismatch(
                "intersection", "facet-half intersection diverges"
            )

    if live.f_vector() != reference.f_vector_reference(family):
        yield mismatch(
            "f-vector",
            f"{live.f_vector()} vs "
            f"{reference.f_vector_reference(family)}",
        )


@audit_rule(
    "AUD016",
    "complex",
    "mask kernels agree with the connectivity/structure oracles",
)
def check_mask_kernel_parity(target: AuditTarget) -> Iterator[Finding]:
    """Cross-check the mask-sweep kernels against the object oracles.

    Connectivity (:mod:`repro.topology.connectivity`) and structural
    invariants (:mod:`repro.topology.structure`) run as batch bitwise
    kernels over the complex's mask index;
    :mod:`repro.topology.reference` keeps the pre-kernel object-set
    algorithms.  This probe runs both on the live complex — the same
    target population as AUD013, one layer up the stack: AUD013 proves
    the index itself sound, this rule proves the sweeps over it.

    Malformed families are AUD001's findings and are skipped here;
    oversized complexes are audited on a deterministic 64-facet
    subfamily so the reference side stays affordable.
    """
    from repro.topology import reference
    from repro.topology.connectivity import (
        connected_components,
        one_skeleton_adjacency,
        shortest_path,
    )
    from repro.topology.structure import (
        boundary_complex,
        is_pseudomanifold,
        ridge_incidence,
    )

    complex_: SimplicialComplex = target.obj
    facets = list(complex_.facets)
    if not facets:
        return
    for facet in facets:
        if not isinstance(facet, Simplex):
            return
        colors = [v.color for v in facet.vertices]
        if any(not isinstance(c, int) for c in colors):
            return
        if len(set(colors)) != len(colors):
            return

    def mismatch(operation: str, detail: str) -> Finding:
        return Finding(
            "AUD016",
            Severity.ERROR,
            target.path,
            f"mask-kernel {operation} disagrees with the object-set "
            f"oracle: {detail}",
        )

    ordered = sorted(facets, key=lambda s: s._sort_key())
    if len(ordered) > 64:
        # A subfamily of an inclusion-maximal family is still maximal.
        ordered = ordered[:64]
        live = SimplicialComplex.from_maximal(ordered)
    else:
        live = complex_
    family = frozenset(ordered)

    if one_skeleton_adjacency(live) != reference.adjacency_reference(
        family
    ):
        yield mismatch("adjacency", "1-skeleton neighbor sets diverge")

    live_components = connected_components(live)
    oracle_components = reference.components_reference(family)
    if live_components != oracle_components:
        yield mismatch(
            "components",
            f"{len(live_components)} components vs "
            f"{len(oracle_components)} from the oracle",
        )

    # Shortest paths can tie, so compare reachability and length, not
    # the vertex sequence.  Probing within the first component and
    # across components (when there are two) covers both answers.
    probes = []
    first = sorted(
        oracle_components[0], key=lambda v: v._sort_key()
    )
    probes.append((first[0], first[-1]))
    if len(oracle_components) > 1:
        second = sorted(
            oracle_components[1], key=lambda v: v._sort_key()
        )
        probes.append((first[0], second[0]))
    for start, goal in probes:
        live_path = shortest_path(live, start, goal)
        oracle_path = reference.shortest_path_reference(
            family, start, goal
        )
        live_length = None if live_path is None else len(live_path)
        oracle_length = None if oracle_path is None else len(oracle_path)
        if live_length != oracle_length:
            yield mismatch(
                "shortest-path",
                f"{start!r} → {goal!r} gives length {live_length} vs "
                f"{oracle_length}",
            )

    live_incidence = ridge_incidence(live)
    oracle_incidence = reference.ridge_incidence_reference(family)
    if {
        ridge: frozenset(found)
        for ridge, found in live_incidence.items()
    } != {
        ridge: frozenset(found)
        for ridge, found in oracle_incidence.items()
    }:
        yield mismatch("ridge-incidence", "ridge → facet maps diverge")

    for require_connected in (True, False):
        if is_pseudomanifold(
            live, require_connected
        ) != reference.is_pseudomanifold_reference(
            family, require_connected
        ):
            yield mismatch(
                "pseudomanifold",
                f"verdict diverges (require_connected="
                f"{require_connected})",
            )

    if boundary_complex(live).facets != reference.boundary_reference(
        family
    ):
        yield mismatch("boundary", "boundary facet sets diverge")


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
                Severity.ERROR,
                target.path,
                f"carrier map undefined on {simplex!r}: {exc}",
            )
            continue
        stray = image.ids - simplex.ids
        if stray:
            yield Finding(
                "AUD003",
                Severity.ERROR,
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
                    Severity.ERROR,
                    target.path,
                    f"not monotone: {face!r} ⊆ {simplex!r} but the face's "
                    f"image contains {missing!r}, absent from the "
                    "simplex's image",
                )
                return


# ----------------------------------------------------------------------
# Schedule rules
# ----------------------------------------------------------------------
@audit_rule("AUD005", "schedule", "schedule matrices satisfy (1)–(5)")
def check_schedule_conditions(target: AuditTarget) -> Iterator[Finding]:
    """Re-verify the Appendix A.3.4 matrix conditions from the raw fields.

    ``OneRoundSchedule.__post_init__`` validates at construction, but
    forged or deserialized schedules bypass it; the audit recomputes every
    condition, plus the chain condition for schedules claiming the
    snapshot model and the footnote-2 condition for claimed
    immediate-snapshot schedules (``schedule_model`` extra: ``collect``,
    ``snapshot``, or ``iis``).
    """
    schedule: OneRoundSchedule = target.obj
    path = target.path
    groups, views = schedule.groups, schedule.views
    if len(groups) != len(views) or not groups:
        yield Finding(
            "AUD005",
            Severity.ERROR,
            path,
            f"malformed matrix: {len(groups)} groups vs {len(views)} "
            "view sets",
        )
        return
    participants = frozenset().union(*groups)
    if len(groups) > len(participants):
        yield Finding(
            "AUD005",
            Severity.ERROR,
            path,
            f"condition (1) violated: r = {len(groups) - 1} exceeds "
            f"|I| - 1 = {len(participants) - 1}",
        )
    if sum(len(g) for g in groups) != len(participants):
        yield Finding(
            "AUD005",
            Severity.ERROR,
            path,
            "condition (4) violated: the groups do not partition I",
        )
    for index, view in enumerate(views):
        if not view <= participants:
            yield Finding(
                "AUD005",
                Severity.ERROR,
                path,
                f"condition (2) violated: P_{index} = {sorted(view)} is "
                f"not a subset of I = {sorted(participants)}",
            )
    if views[0] != participants:
        yield Finding(
            "AUD005",
            Severity.ERROR,
            path,
            f"condition (3) violated: P_0 = {sorted(views[0])} differs "
            f"from I = {sorted(participants)}",
        )
    suffix: frozenset[str] = frozenset()
    for index in range(len(groups) - 1, -1, -1):
        suffix = suffix | groups[index]
        if not suffix <= views[index]:
            yield Finding(
                "AUD005",
                Severity.ERROR,
                path,
                f"condition (5) violated: P_{index} does not contain "
                f"I_{index} ∪ … ∪ I_r",
            )
    claimed = target.extras.get("schedule_model")
    if claimed in ("snapshot", "iis") and not schedule.is_snapshot():
        yield Finding(
            "AUD005",
            Severity.ERROR,
            path,
            "snapshot condition violated: the view sets do not form a "
            "chain (footnote 1)",
        )
    if claimed == "iis" and not schedule.is_immediate_snapshot():
        yield Finding(
            "AUD005",
            Severity.ERROR,
            path,
            "immediate-snapshot condition violated: q ∈ P_i ∩ I_j with "
            "P_j ⊄ P_i (footnote 2)",
        )


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
                Severity.ERROR,
                prefix,
                f"P^(1)(σ) must be pure of dimension {sigma.dim}, got "
                f"dim {complex_.dim} (pure={complex_.is_pure()})",
            )
        if complex_.ids != sigma.ids:
            yield Finding(
                "AUD006",
                Severity.ERROR,
                prefix,
                f"P^(1)(σ) colors {sorted(complex_.ids)} differ from "
                f"ID(σ) = {sorted(sigma.ids)}",
            )
        for vertex in sigma.vertices:
            solo = model.solo_vertex(vertex)
            if solo not in complex_.vertices:
                yield Finding(
                    "AUD006",
                    Severity.ERROR,
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
                    Severity.ERROR,
                    prefix,
                    f"operator not idempotent on solo views: "
                    f"P^(1)({{{vertex!r}}}) has "
                    f"{len(solo_complex.facets)} facets instead of the "
                    "single solo vertex",
                )


@audit_rule("AUD007", "model", "memoized complexes match fresh builds")
def check_memo_coherence(target: AuditTarget) -> Iterator[Finding]:
    """Cache-coherence probe for the PR-1 memoization layer.

    Interned one-round complexes and view-map tables are shared across
    every consumer of a model instance; a single in-place mutation (or a
    cache poisoned by a buggy write) silently corrupts every later
    computation.  The probe rebuilds each cached entry through the
    uncached hook and requires exact equality.
    """
    model: ComputationModel = target.obj
    one_round_cache = getattr(model, "_one_round_cache", None) or {}
    # The memo is keyed by the input simplex itself, so each entry can
    # be rebuilt directly.
    for sigma, cached in list(one_round_cache.items()):
        fresh = model._build_one_round_complex(sigma)
        if cached != fresh:
            yield Finding(
                "AUD007",
                Severity.ERROR,
                f"{target.path}/one-round-cache[{sigma!r}]",
                f"stale memo entry: cached complex ({len(cached.facets)} "
                f"facets) differs from a fresh build "
                f"({len(fresh.facets)} facets)",
            )
    if isinstance(model, IteratedModel):
        view_cache = getattr(model, "_view_map_cache", None) or {}
        for ids, cached_maps in list(view_cache.items()):
            fresh_maps = model._enumerate_view_maps(ids)
            if cached_maps != fresh_maps:
                yield Finding(
                    "AUD007",
                    Severity.ERROR,
                    f"{target.path}/view-map-cache[{sorted(ids)}]",
                    f"stale view-map entry: {len(cached_maps)} cached "
                    f"maps vs {len(fresh_maps)} freshly enumerated",
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
                Severity.ERROR,
                target.path,
                f"Δ undefined on {sigma!r}: {exc}",
            )
            continue
        stray_colors = allowed.ids - sigma.ids
        if stray_colors:
            yield Finding(
                "AUD008",
                Severity.ERROR,
                target.path,
                f"Δ({sigma!r}) uses colors {sorted(stray_colors)} "
                "outside ID(σ)",
            )
        stray = allowed.simplices - task.output_complex.simplices
        if stray:
            sample = next(iter(stray))
            yield Finding(
                "AUD008",
                Severity.ERROR,
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
            Severity.ERROR,
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
                Severity.ERROR,
                target.path,
                f"Δ'({sigma!r}) uses colors outside ID(σ)",
            )
        missing = allowed.simplices - prime.simplices
        if missing:
            sample = next(iter(missing))
            yield Finding(
                "AUD009",
                Severity.ERROR,
                target.path,
                f"Δ({sigma!r}) ⊄ Δ'({sigma!r}): lost legal output "
                f"{sample!r} (closures only grow, Definition 2)",
            )


@audit_rule(
    "AUD010", "faults-config", "chaos campaign configurations are sound"
)
def check_faults_config(target: AuditTarget) -> Iterator[Finding]:
    """Soundness of a chaos :class:`~repro.faults.campaign.CampaignConfig`.

    The campaign runner validates eagerly; this rule re-checks the same
    conditions as findings (all at once, never raising) so ``repro check``
    can audit config constants and CLI presets without running anything:
    the cell must exist, the model must be supported by the cell (black
    box cells are IIS-only — general matrix schedules have no temporal
    blocks), probabilities must be in range, the crash budget must leave a
    survivor, and *illegal* injectors must be explicitly opted into.
    """
    from repro.faults.campaign import CELLS, ILLEGAL_MODES

    config = target.obj
    spec = CELLS.get(config.cell)
    if spec is None:
        yield Finding(
            "AUD010",
            Severity.ERROR,
            target.path,
            f"unknown chaos cell {config.cell!r}",
        )
        return
    if not 0.0 <= config.crash_probability <= 1.0:
        yield Finding(
            "AUD010",
            Severity.ERROR,
            target.path,
            f"crash probability {config.crash_probability} outside "
            "[0, 1]",
        )
    if config.model not in spec.models:
        yield Finding(
            "AUD010",
            Severity.ERROR,
            target.path,
            f"cell {config.cell!r} does not support model "
            f"{config.model!r} (allowed: {'/'.join(spec.models)})",
        )
    if not 0 <= config.t < config.n:
        yield Finding(
            "AUD010",
            Severity.ERROR,
            target.path,
            f"crash budget t={config.t} must satisfy 0 ≤ t < n="
            f"{config.n} (some process must survive)",
        )
    if not 0 < config.epsilon <= 1:
        yield Finding(
            "AUD010",
            Severity.ERROR,
            target.path,
            f"ε = {config.epsilon} outside (0, 1]",
        )
    if config.illegal is not None:
        if config.illegal not in ILLEGAL_MODES:
            yield Finding(
                "AUD010",
                Severity.ERROR,
                target.path,
                f"unknown illegal injector {config.illegal!r} "
                f"(known: {', '.join(ILLEGAL_MODES)})",
            )
        elif not config.allow_illegal:
            yield Finding(
                "AUD010",
                Severity.ERROR,
                target.path,
                f"illegal injector {config.illegal!r} configured "
                "without allow_illegal: model-breaking faults must be "
                "an explicit opt-in",
            )


def _audit_span_node(
    node: Any,
    location: str,
    path: str,
    parent_interval: Optional[tuple[float, float]],
) -> Iterator[Finding]:
    """Recursively validate one span node of a trace artifact."""
    import json as _json

    if not isinstance(node, dict):
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{location}: span node is {type(node).__name__}, not an "
            "object",
        )
        return
    name = node.get("name")
    if not isinstance(name, str) or not name:
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{location}: span has no non-empty string 'name'",
        )
        name = "?"
    where = f"{location}[{name}]"
    start = node.get("start")
    end = node.get("end")
    numeric = isinstance(start, (int, float)) and isinstance(
        end, (int, float)
    )
    if end is None:
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{where}: span was never closed (end is null) — the "
            "traced region did not finish",
        )
    elif not numeric:
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{where}: start/end must be numeric seconds, got "
            f"{start!r}/{end!r}",
        )
    elif start > end:
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{where}: start {start} exceeds end {end} (negative "
            "duration)",
        )
    elif parent_interval is not None and (
        start < parent_interval[0] or end > parent_interval[1]
    ):
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{where}: child interval [{start}, {end}] escapes its "
            f"parent's [{parent_interval[0]}, {parent_interval[1]}]",
        )
    status = node.get("status")
    if status not in ("ok", "error"):
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{where}: status must be 'ok' or 'error', got {status!r}",
        )
    attributes = node.get("attributes", {})
    if not isinstance(attributes, dict):
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{where}: attributes must be an object",
        )
    else:
        for key, value in attributes.items():
            try:
                _json.dumps(value)
            except (TypeError, ValueError):
                yield Finding(
                    "AUD011",
                    Severity.ERROR,
                    path,
                    f"{where}: attribute {key!r} is not "
                    f"JSON-serializable ({type(value).__name__})",
                )
    metrics = node.get("metrics", {})
    if not isinstance(metrics, dict):
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{where}: metrics must be an object",
        )
    else:
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(
                value, bool
            ):
                yield Finding(
                    "AUD011",
                    Severity.ERROR,
                    path,
                    f"{where}: metric {key!r} must be numeric, got "
                    f"{type(value).__name__}",
                )
    children = node.get("children", [])
    if not isinstance(children, list):
        yield Finding(
            "AUD011",
            Severity.ERROR,
            path,
            f"{where}: children must be a list",
        )
        return
    own_interval = (
        (float(start), float(end)) if numeric and start <= end else None
    )
    for position, child in enumerate(children):
        yield from _audit_span_node(
            child, f"{where}.children[{position}]", path, own_interval
        )


@audit_rule(
    "AUD011", "trace", "telemetry trace artifacts are well-formed"
)
def check_trace_artifact(target: AuditTarget) -> Iterator[Finding]:
    """Well-formedness of a finished ``repro-trace`` artifact.

    The exporters produce valid artifacts by construction (attributes
    are coerced at record time, open spans refuse to export); this rule
    re-checks the contract on the *serialized* artifact, so foreign or
    hand-edited traces — and regressions in the exporters themselves —
    are caught before a dashboard or ``repro trace summarize`` consumes
    them: every span closed, ``start ≤ end``, children nested within
    their parent's interval, attribute values JSON-serializable, metric
    deltas numeric.
    """
    from repro.telemetry.export import TRACE_FORMAT, TRACE_VERSION

    trace = target.obj
    if not isinstance(trace, dict):
        yield Finding(
            "AUD011",
            Severity.ERROR,
            target.path,
            f"trace artifact is {type(trace).__name__}, not an object",
        )
        return
    if trace.get("format") != TRACE_FORMAT:
        yield Finding(
            "AUD011",
            Severity.ERROR,
            target.path,
            f"unknown trace format {trace.get('format')!r} (expected "
            f"{TRACE_FORMAT!r})",
        )
        return
    if trace.get("version") != TRACE_VERSION:
        yield Finding(
            "AUD011",
            Severity.ERROR,
            target.path,
            f"unsupported trace version {trace.get('version')!r} "
            f"(expected {TRACE_VERSION})",
        )
        return
    spans = trace.get("spans")
    if not isinstance(spans, list):
        yield Finding(
            "AUD011",
            Severity.ERROR,
            target.path,
            "trace artifact has no 'spans' list",
        )
        return
    for position, root in enumerate(spans):
        yield from _audit_span_node(
            root, f"spans[{position}]", target.path, None
        )

