"""The proof machine's source rules, as plain functions over an AST.

Each rule takes a parsed module and its dotted name and returns the
``(rule_id, line, message)`` of every violation, so a test asserts
``== []`` on clean source and shows the offenders when it fails:

* :func:`interned_mutation` (RPR001) — no assignment to the internal
  slots of ``Vertex``, ``View``, ``Simplex`` or ``SimplicialComplex``
  outside their own modules: the memo layers intern and share these
  objects, so one foreign write corrupts every holder;
* :func:`exception_hygiene` (RPR004) — no silent ``except …: pass`` in
  ``repro.core``, ``repro.models`` or ``repro.topology``, where a
  swallowed error turns an invariant violation into a wrong theorem;
* :func:`ambient_nondeterminism` (RPR008) — ``repro.core`` and
  ``repro.topology`` depend on their inputs only: no module-level or
  unseeded ``random``, no wall-clock reads, no ``key=id`` orderings.

Properties that ruff or mypy gate (bare ``except:``, annotations) are
left to them.  :func:`source_violations` runs every rule over
``src/repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_TOPOLOGY = "repro.topology."

#: Internal slots of the interned value objects, with the modules
#: allowed to assign them.
_OWNERS = {
    "_facets": {_TOPOLOGY + "complex"},
    "_faces_cache": {_TOPOLOGY + "complex"},
    "_vertices_cache": {_TOPOLOGY + "complex"},
    "_table": {_TOPOLOGY + "complex"},
    "_masks": {_TOPOLOGY + "complex"},
    "_face_masks": {_TOPOLOGY + "complex"},
    "_vertices": {_TOPOLOGY + "simplex"},
    "_color": {_TOPOLOGY + "vertex"},
    "_value": {_TOPOLOGY + "vertex"},
    "_items": {_TOPOLOGY + "views"},
    # Cached hash and sort key: a wrong one silently breaks every memo
    # dict holding the object, or every sorted order it takes part in.
    "_hash": {
        _TOPOLOGY + name for name in ("vertex", "views", "simplex", "complex")
    },
    "_skey": {_TOPOLOGY + name for name in ("vertex", "views", "simplex")},
}

#: Slots so specific to the value objects that even ``self.<attr>``
#: writes are flagged outside the owning module.
_ALWAYS_PROTECTED = {
    "_facets", "_faces_cache", "_vertices_cache", "_face_masks"
}

_HOT_PACKAGES = {
    ("repro", "core"), ("repro", "models"), ("repro", "topology")
}
_PURE_PACKAGES = {("repro", "core"), ("repro", "topology")}

_WALLCLOCK = {
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


def _package(module):
    return tuple(module.split("."))[:2]


def _assigned_attributes(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = node.targets
    else:
        return []
    return [target for target in targets if isinstance(target, ast.Attribute)]


def interned_mutation(tree, module):
    """RPR001: writes to interned value-object slots outside their owners."""
    found = []
    for node in ast.walk(tree):
        for target in _assigned_attributes(node):
            owners = _OWNERS.get(target.attr)
            if owners is None or module in owners:
                continue
            on_self = (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
            if on_self and target.attr not in _ALWAYS_PROTECTED:
                # A foreign class may own a slot with a generic name like
                # `_color`; only a write to another object is unambiguous.
                continue
            found.append((
                "RPR001",
                node.lineno,
                f"assignment to {target.attr!r} outside "
                f"{', '.join(sorted(owners))}: interned topology objects "
                "are shared by the memo layers and must never be mutated",
            ))
    return found


def exception_hygiene(tree, module):
    """RPR004: a silent ``except …: pass`` in a solver hot package."""
    if _package(module) not in _HOT_PACKAGES:
        return []
    return [
        (
            "RPR004",
            node.lineno,
            "silent `except …: pass` in a solver hot path: a swallowed "
            "error here turns an invariant violation into a wrong "
            "theorem — handle or re-raise",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Pass)
    ]


def _import_aliases(tree):
    """Map each imported local name to its dotted import target."""
    aliases = {}
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


def _call_target(call, aliases):
    """The dotted import target a call goes to, or ``""``."""
    parts = []
    function = call.func
    while isinstance(function, ast.Attribute):
        parts.append(function.attr)
        function = function.value
    if not isinstance(function, ast.Name) or function.id not in aliases:
        return ""
    parts.append(aliases[function.id])
    return ".".join(reversed(parts))


def _is_id_keyed_sort(call):
    function = call.func
    is_sort = (
        isinstance(function, ast.Name)
        and function.id in ("sorted", "min", "max")
    ) or (isinstance(function, ast.Attribute) and function.attr == "sort")
    return is_sort and any(
        keyword.arg == "key"
        and isinstance(keyword.value, ast.Name)
        and keyword.value.id == "id"
        for keyword in call.keywords
    )


def _is_seeded(call):
    return bool(call.args) or any(k.arg == "x" for k in call.keywords)


def ambient_nondeterminism(tree, module):
    """RPR008: unseeded randomness, clocks or ``key=id`` in pure packages."""
    if _package(module) not in _PURE_PACKAGES:
        return []
    aliases = _import_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _call_target(node, aliases)
        if target == "random.Random":
            if _is_seeded(node):
                continue
            message = (
                "random.Random() without a seed seeds itself from the OS; "
                "pass an explicit seed"
            )
        elif target.startswith("random."):
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
        found.append(("RPR008", node.lineno, message))
    return found


RULES = (interned_mutation, exception_hygiene, ambient_nondeterminism)


def violations(source, module, filename="<fixture>"):
    """Every rule's violations in one module given as source text."""
    tree = ast.parse(source, filename=filename)
    return [found for rule in RULES for found in rule(tree, module)]


def source_violations(root=SRC):
    """``(path:line, rule_id, message)`` for every violation under ``root``.

    A file that does not parse raises :class:`SyntaxError`.
    """
    found = []
    for path in sorted((root / "repro").rglob("*.py")):
        name = path.relative_to(root)
        parts = name.with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        source = path.read_text(encoding="utf-8")
        for rule_id, line, message in violations(source, module, str(path)):
            found.append((f"{name}:{line}", rule_id, message))
    return found
