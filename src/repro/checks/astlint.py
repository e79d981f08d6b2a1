"""Repo-specific AST lint rules (the ``RPR`` rule family).

A small stdlib-``ast`` visitor framework with rules encoding correctness
contracts that generic linters cannot know.  Properties that ruff or
mypy already gate are left to them: bare ``except:`` is ruff's E722, and
complete annotations are mypy's ``disallow_untyped_defs`` /
``disallow_incomplete_defs``.  Performance conventions are left to the
ledger, which measures them.

========  ============================================================
rule id   contract
========  ============================================================
RPR001    never assign to the internal attributes of :class:`Vertex`,
          :class:`View`, :class:`Simplex`, or :class:`SimplicialComplex`
          outside their own modules — the memoization layer interns and
          shares these objects, so one mutation corrupts every holder of
          the object
RPR004    no silent ``except …: pass`` in the solver hot paths
          (``repro.core``, ``repro.models``, ``repro.topology``) —
          swallowed errors there turn invariant violations into wrong
          theorems
RPR008    ``repro.core`` and ``repro.topology`` are free of ambient
          nondeterminism: no unseeded module-level ``random`` calls, no
          wall-clock reads, no ``key=id`` orderings — results depend on
          inputs only (a seeded ``random.Random`` is fine)
========  ============================================================

A module that does not parse is one ``RPR000`` finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from repro.checks.findings import Finding
from repro.errors import ReproError

__all__ = [
    "LintContext",
    "LintRule",
    "LINT_RULES",
    "lint_rule",
    "lint_source",
    "lint_paths",
]

#: Internal attributes of the interned value objects, keyed by the module
#: allowed to assign them.
_PROTECTED_ATTRS: dict[str, str] = {
    "_facets": "repro.topology.complex",
    "_faces_cache": "repro.topology.complex",
    "_vertices_cache": "repro.topology.complex",
    "_table": "repro.topology.complex",
    "_masks": "repro.topology.complex",
    "_face_masks": "repro.topology.complex",
    "_vertices": "repro.topology.simplex",
    "_color": "repro.topology.vertex",
    "_value": "repro.topology.vertex",
    "_items": "repro.topology.views",
}

#: Attributes so specific to the value objects that even ``self.<attr>``
#: assignments are flagged outside the owning module.
_ALWAYS_PROTECTED: frozenset[str] = frozenset(
    {"_facets", "_faces_cache", "_vertices_cache", "_face_masks"}
)

#: Packages whose exception handling is held to the strictest standard
#: (the proof-machine hot paths).
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


@dataclass(frozen=True)
class LintContext:
    """Everything a lint rule needs about one module."""

    path: str
    module: str
    tree: ast.Module

    @property
    def module_parts(self) -> tuple[str, ...]:
        return tuple(self.module.split(".")) if self.module else ()

    def in_hot_package(self) -> bool:
        return self.module_parts[:2] in _HOT_PACKAGES


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
                f"{path}:{exc.lineno or 0}",
                f"syntax error: {exc.msg}",
            )
        ]
    context = LintContext(path=path, module=resolved_module, tree=tree)
    findings: list[Finding] = []
    for rule in LINT_RULES.values():
        findings.extend(rule.check(context))
    return findings


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted.

    Raises :class:`~repro.errors.ReproError` on a path that is neither a
    directory nor an existing ``.py`` file, so a mistyped path is not
    reported as clean.
    """
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        elif root.suffix == ".py" and root.is_file():
            yield root
        else:
            raise ReproError(
                f"cannot lint {entry!r}: not a directory or a .py file"
            )


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
                _location(context, node),
                f"assignment to {attr!r} outside {owner}: interned "
                "topology objects are shared by the memoization layer "
                "and must never be mutated",
            )


# ----------------------------------------------------------------------
# RPR004 — no swallowed errors on hot paths
# ----------------------------------------------------------------------
@lint_rule("RPR004", "no silent pass in solver hot paths")
def check_exception_hygiene(context: LintContext) -> Iterator[Finding]:
    if not context.in_hot_package():
        return
    for node in ast.walk(context.tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and len(node.body) == 1
            and isinstance(node.body[0], ast.Pass)
        ):
            yield Finding(
                "RPR004",
                _location(context, node),
                "silent `except …: pass` in a solver hot path: a "
                "swallowed error here turns an invariant violation "
                "into a wrong theorem — handle or re-raise",
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
        yield Finding("RPR008", _location(context, node), message)
