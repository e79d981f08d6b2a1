"""Repo-specific AST lint rules (the ``RPR`` rule family).

A small stdlib-``ast`` visitor framework with rules encoding contracts
that generic linters cannot know:

========  ============================================================
rule id   contract
========  ============================================================
RPR001    never assign to the internal attributes of :class:`Vertex`,
          :class:`Simplex`, or :class:`SimplicialComplex` outside their
          own modules — the memoization layer interns and shares these
          objects, so one mutation corrupts every holder of the object
RPR002    construction sites that already hold an inclusion-maximal
          facet family (``x.facets``, ``x.sorted_facets()``,
          ``x.facets_containing(v)``) must use
          ``SimplicialComplex.from_maximal``, not the pruning
          constructor — the prune is pure overhead there
RPR003    ``default_registry().cache(name)`` is a registry lookup;
          fetch counters once at module level, never per call on a hot
          path
RPR004    no bare ``except:`` anywhere, and no silent ``except …:
          pass`` in the solver hot paths (``repro.core``,
          ``repro.models``, ``repro.topology``) — swallowed errors
          there turn invariant violations into wrong theorems
RPR005    public functions in ``repro.core``, ``repro.models``, and
          ``repro.topology`` must carry complete type annotations
          (every parameter and the return type), keeping the mypy
          gate and ``py.typed`` honest
RPR008    ``repro.core`` and ``repro.topology`` are free of ambient
          nondeterminism: no unseeded module-level ``random`` calls, no
          wall-clock reads, no ``key=id`` orderings — results depend on
          inputs only (a seeded ``random.Random`` is fine)
========  ============================================================

Suppression: append ``# norpr: RPR003`` (comma-separate several ids, or
``all``) to the offending line.  Suppressions are deliberate, reviewable
exemptions — e.g. the lazy per-instance counter init in
:mod:`repro.models.base`.  A suppression that suppresses *nothing* (a
stale or misspelled id, or no finding left on that line) is itself
reported as RPR000 so exemptions cannot rot silently; the ``all``
wildcard is exempt from staleness.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
)

from repro.checks.findings import Finding, Severity

__all__ = [
    "LintContext",
    "LintRule",
    "LINT_RULES",
    "lint_rule",
    "lint_source",
    "lint_paths",
]

_SUPPRESSION = re.compile(r"#\s*norpr:\s*([A-Za-z0-9_,\s]+)")

#: Internal attributes of the interned value objects, keyed by the module
#: allowed to assign them.
_PROTECTED_ATTRS: dict[str, str] = {
    "_facets": "repro.topology.complex",
    "_faces_cache": "repro.topology.complex",
    "_vertices_cache": "repro.topology.complex",
    "_vertices": "repro.topology.simplex",
    "_color": "repro.topology.vertex",
}

#: Attributes so specific to the value objects that even ``self.<attr>``
#: assignments are flagged outside the owning module.
_ALWAYS_PROTECTED: frozenset[str] = frozenset(
    {"_facets", "_faces_cache", "_vertices_cache"}
)

#: Packages whose exception handling and annotations are held to the
#: strictest standard (the proof-machine hot paths).
_HOT_PACKAGES: frozenset[tuple[str, str]] = frozenset(
    {
        ("repro", "core"),
        ("repro", "models"),
        ("repro", "topology"),
    }
)

#: Packages whose results must depend on their inputs only (RPR008).
_PURE_PACKAGES: frozenset[tuple[str, str]] = frozenset(
    {("repro", "core"), ("repro", "topology")}
)

#: Wall-clock reads banned from the pure packages.
_WALLCLOCK: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Methods of SimplicialComplex whose return value is already an
#: inclusion-maximal facet family.
_MAXIMAL_PRODUCERS: frozenset[str] = frozenset(
    {"sorted_facets", "facets_containing"}
)


@dataclass(frozen=True)
class LintContext:
    """Everything a lint rule needs about one module."""

    path: str
    module: str
    tree: ast.Module
    lines: tuple[str, ...]
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def module_parts(self) -> tuple[str, ...]:
        return tuple(self.module.split(".")) if self.module else ()

    def in_hot_package(self) -> bool:
        return self.module_parts[:2] in _HOT_PACKAGES

    def suppressed(self, line: int, rule_id: str) -> bool:
        active = self.suppressions.get(line)
        if not active:
            return False
        return rule_id in active or "all" in active


Checker = Callable[[LintContext], Iterator[Finding]]


@dataclass(frozen=True)
class LintRule:
    """One registered AST lint rule."""

    rule_id: str
    title: str
    check: Checker


LINT_RULES: dict[str, LintRule] = {}


def lint_rule(rule_id: str, title: str) -> Callable[[Checker], Checker]:
    """Register a checker function as the lint rule ``rule_id``."""

    def register(function: Checker) -> Checker:
        if rule_id in LINT_RULES:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        LINT_RULES[rule_id] = LintRule(rule_id, title, function)
        return function

    return register


def _parse_suppressions(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map line numbers to the rule ids suppressed on them.

    Works on real comment tokens, not raw text, so a ``# norpr:``
    example quoted inside a docstring is not treated as a suppression.
    Sources that fail to tokenize fall back to a line-regex scan (the
    lint still reports their syntax error separately).
    """
    found: dict[int, frozenset[str]] = {}

    def record(line_number: int, comment: str) -> None:
        match = _SUPPRESSION.search(comment)
        if match:
            found[line_number] = frozenset(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )

    import io
    import tokenize

    source = "\n".join(lines)
    try:
        for token in tokenize.generate_tokens(
            io.StringIO(source).readline
        ):
            if token.type == tokenize.COMMENT:
                record(token.start[0], token.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        found.clear()
        for number, line in enumerate(lines, start=1):
            record(number, line)
    return found


def _module_name_of(path: Path) -> str:
    """Derive the dotted module name from a file path (best effort)."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def lint_source(
    source: str, path: str = "<string>", module: Optional[str] = None
) -> list[Finding]:
    """Lint one module given as source text; returns its findings."""
    resolved_module = (
        module if module is not None else _module_name_of(Path(path))
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                "RPR000",
                Severity.ERROR,
                f"{path}:{exc.lineno or 0}",
                f"syntax error: {exc.msg}",
            )
        ]
    lines = tuple(source.splitlines())
    context = LintContext(
        path=path,
        module=resolved_module,
        tree=tree,
        lines=lines,
        suppressions=_parse_suppressions(lines),
    )
    findings: list[Finding] = []
    used: set[tuple[int, str]] = set()
    for rule in LINT_RULES.values():
        for finding in rule.check(context):
            line = int(finding.path.rsplit(":", 1)[-1])
            if context.suppressed(line, finding.rule_id):
                active = context.suppressions.get(line) or frozenset()
                used.add(
                    (
                        line,
                        finding.rule_id
                        if finding.rule_id in active
                        else "all",
                    )
                )
            else:
                findings.append(finding)
    findings.extend(_unused_suppressions(context, used))
    return findings


def _unused_suppressions(
    context: LintContext, used: set[tuple[int, str]]
) -> Iterator[Finding]:
    """RPR000 findings for suppressions that suppressed nothing.

    The ``all`` wildcard is exempt.
    """
    for line, ids in sorted(context.suppressions.items()):
        for rule_id in sorted(ids):
            if rule_id == "all":
                continue
            if (line, rule_id) in used:
                continue
            reason = (
                "suppresses no finding on this line"
                if rule_id in LINT_RULES
                else "names a rule id no engine defines"
            )
            yield Finding(
                "RPR000",
                Severity.WARNING,
                f"{context.path}:{line}",
                f"unused suppression: `# norpr: {rule_id}` {reason} "
                "— remove it before it rots",
            )


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted."""
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            yield root


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint every Python file under the given paths."""
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, path=str(file_path)))
    return findings


def _location(context: LintContext, node: ast.AST) -> str:
    return f"{context.path}:{getattr(node, 'lineno', 0)}"


# ----------------------------------------------------------------------
# RPR001 — interning safety
# ----------------------------------------------------------------------
@lint_rule("RPR001", "no mutation of interned value-object internals")
def check_no_interned_mutation(context: LintContext) -> Iterator[Finding]:
    def flagged_targets(node: ast.AST) -> Iterator[ast.Attribute]:
        if isinstance(node, ast.Assign):
            candidates: Iterable[ast.expr] = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            candidates = [node.target]
        elif isinstance(node, ast.Delete):
            candidates = node.targets
        else:
            return
        for target in candidates:
            if isinstance(target, ast.Attribute):
                yield target

    for node in ast.walk(context.tree):
        for target in flagged_targets(node):
            attr = target.attr
            owner = _PROTECTED_ATTRS.get(attr)
            if owner is None or context.module == owner:
                continue
            is_self = (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
            if is_self and attr not in _ALWAYS_PROTECTED:
                # A foreign class may legitimately own an attribute with
                # a generic name like `_color`; only non-self writes are
                # unambiguous mutations of someone else's object.
                continue
            yield Finding(
                "RPR001",
                Severity.ERROR,
                _location(context, node),
                f"assignment to {attr!r} outside {owner}: interned "
                "topology objects are shared by the memoization layer "
                "and must never be mutated",
            )


# ----------------------------------------------------------------------
# RPR002 — from_maximal discipline
# ----------------------------------------------------------------------
@lint_rule("RPR002", "maximal facet families must use from_maximal")
def check_from_maximal(context: LintContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SimplicialComplex"
            and len(node.args) == 1
            and not node.keywords
        ):
            continue
        argument = node.args[0]
        maximal = (
            isinstance(argument, ast.Attribute)
            and argument.attr == "facets"
        ) or (
            isinstance(argument, ast.Call)
            and isinstance(argument.func, ast.Attribute)
            and argument.func.attr in _MAXIMAL_PRODUCERS
        )
        if maximal:
            yield Finding(
                "RPR002",
                Severity.ERROR,
                _location(context, node),
                "this argument is already an inclusion-maximal facet "
                "family; use SimplicialComplex.from_maximal(...) and "
                "skip the pruning pass",
            )


# ----------------------------------------------------------------------
# RPR003 — counters are module-level
# ----------------------------------------------------------------------
_REGISTRY_FETCHES = frozenset(
    {
        "repro.telemetry.default_registry",
        "repro.telemetry.metrics.default_registry",
    }
)


@lint_rule("RPR003", "registry cache counters are fetched at module level")
def check_counter_placement(context: LintContext) -> Iterator[Finding]:
    aliases = _import_aliases(context.tree)
    for function in ast.walk(context.tree):
        if not isinstance(
            function, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cache"
                and isinstance(node.func.value, ast.Call)
                and _resolve_call(node.func.value, aliases)
                in _REGISTRY_FETCHES
            ):
                yield Finding(
                    "RPR003",
                    Severity.ERROR,
                    _location(context, node),
                    "default_registry().cache() called inside a "
                    "function: fetch the counter once at module level "
                    "and keep a reference on the hot path",
                )


# ----------------------------------------------------------------------
# RPR004 — no swallowed errors on hot paths
# ----------------------------------------------------------------------
@lint_rule("RPR004", "no bare except / silent pass in solver hot paths")
def check_exception_hygiene(context: LintContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Finding(
                "RPR004",
                Severity.ERROR,
                _location(context, node),
                "bare `except:` catches SystemExit/KeyboardInterrupt "
                "and hides invariant violations; name the exceptions",
            )
            continue
        silent = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
        if silent and context.in_hot_package():
            yield Finding(
                "RPR004",
                Severity.ERROR,
                _location(context, node),
                "silent `except …: pass` in a solver hot path: a "
                "swallowed error here turns an invariant violation "
                "into a wrong theorem — handle or re-raise",
            )


# ----------------------------------------------------------------------
# RPR005 — annotated public API in the proof core
# ----------------------------------------------------------------------
def _missing_annotations(
    function: ast.FunctionDef,
) -> list[str]:
    missing: list[str] = []
    arguments = function.args
    positional = list(arguments.posonlyargs) + list(arguments.args)
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    for argument in positional + list(arguments.kwonlyargs):
        if argument.annotation is None:
            missing.append(argument.arg)
    for star in (arguments.vararg, arguments.kwarg):
        if star is not None and star.annotation is None:
            missing.append(star.arg)
    if function.returns is None:
        missing.append("return")
    return missing


@lint_rule("RPR005", "public proof-core functions are fully annotated")
def check_public_annotations(context: LintContext) -> Iterator[Finding]:
    if not context.in_hot_package():
        return

    class Scope(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: list[tuple[ast.FunctionDef, list[str]]] = []

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            name = node.name
            public = not name.startswith("_")
            if public:
                missing = _missing_annotations(node)
                if missing:
                    self.found.append((node, missing))
            # Do not descend: closures inside a function are local
            # implementation details, not public API.

        def visit_AsyncFunctionDef(
            self, node: ast.AsyncFunctionDef
        ) -> None:
            self.visit_FunctionDef(node)  # type: ignore[arg-type]

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.generic_visit(node)

    scope = Scope()
    scope.visit(context.tree)
    for node, missing in scope.found:
        yield Finding(
            "RPR005",
            Severity.ERROR,
            _location(context, node),
            f"public function {node.name!r} is missing annotations for: "
            f"{', '.join(missing)} (the mypy gate and py.typed require "
            "a fully typed proof core)",
        )


# ----------------------------------------------------------------------
# RPR008 — no ambient nondeterminism in the pure packages
# ----------------------------------------------------------------------
def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map each imported local name to its dotted import target."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.partition(".")[0]
                aliases[alias.asname or head] = (
                    alias.name if alias.asname else head
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _resolve_call(node: ast.Call, aliases: dict[str, str]) -> Optional[str]:
    """The dotted import target a call goes to, or ``None``."""
    parts: list[str] = []
    function = node.func
    while isinstance(function, ast.Attribute):
        parts.append(function.attr)
        function = function.value
    if not isinstance(function, ast.Name) or function.id not in aliases:
        return None
    parts.append(aliases[function.id])
    return ".".join(reversed(parts))


def _is_id_keyed_sort(node: ast.Call) -> bool:
    function = node.func
    is_sort = (
        isinstance(function, ast.Name)
        and function.id in ("sorted", "min", "max")
    ) or (isinstance(function, ast.Attribute) and function.attr == "sort")
    return is_sort and any(
        keyword.arg == "key"
        and isinstance(keyword.value, ast.Name)
        and keyword.value.id == "id"
        for keyword in node.keywords
    )


@lint_rule("RPR008", "pure packages are free of ambient nondeterminism")
def check_ambient_nondeterminism(context: LintContext) -> Iterator[Finding]:
    if context.module_parts[:2] not in _PURE_PACKAGES:
        return
    aliases = _import_aliases(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve_call(node, aliases) or ""
        if target.startswith("random.") and target != "random.Random":
            message = (
                f"{target}() drives the unseeded module-level RNG; pass "
                "a seeded random.Random instance instead"
            )
        elif target in _WALLCLOCK:
            message = (
                f"{target}() reads the wall clock; results must depend "
                "on inputs only"
            )
        elif _is_id_keyed_sort(node):
            message = (
                "ordering by key=id sorts by memory address, which "
                "varies run to run; order by a value-derived key"
            )
        else:
            continue
        yield Finding(
            "RPR008", Severity.ERROR, _location(context, node), message
        )
