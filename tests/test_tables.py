"""Unit tests for the fixed-width table renderer."""

import ast
from pathlib import Path

from repro.tables import ExperimentRow, render_table

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imports(tree):
    """``(module, node)`` for every import in ``tree``, relative ones
    with their leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), node


class TestExperimentRow:
    def test_cells_ok(self):
        row = ExperimentRow("n=3, ε=1/4", "2 rounds", "2 rounds", True)
        assert row.cells()[-1] == "ok"

    def test_cells_mismatch(self):
        row = ExperimentRow("n=3", "2", "3", False)
        assert row.cells()[-1] == "MISMATCH"


class TestRenderTable:
    def test_contains_title_and_rows(self):
        rows = [
            ExperimentRow("a", "1", "1", True),
            ExperimentRow("b", "2", "3", False),
        ]
        text = render_table("My table", rows)
        assert "My table" in text
        assert "MISMATCH" in text
        assert text.count("\n") >= 5

    def test_column_alignment(self):
        rows = [
            ExperimentRow("long-instance-name", "1", "1", True),
            ExperimentRow("x", "2", "2", True),
        ]
        lines = render_table("t", rows).splitlines()
        data_lines = lines[4:]
        # The 'paper' column starts at the same offset on every row.
        offsets = {line.index("1") for line in data_lines[:1]}
        assert len(offsets) == 1

    def test_custom_headers(self):
        text = render_table(
            "t",
            [ExperimentRow("i", "p", "m", True)],
            headers=("инстанс", "бумага", "изм.", "вердикт"),
        )
        assert "инстанс" in text

    def test_empty_rows(self):
        text = render_table("empty", [])
        assert "empty" in text


class TestLeafModule:
    """Every layer imports the renderer at module level, so the
    renderer may import nothing from :mod:`repro`."""

    def test_imports_nothing_from_repro(self):
        tree = ast.parse((SRC / "tables.py").read_text(encoding="utf-8"))
        assert [
            name
            for name, _ in _imports(tree)
            if name.split(".")[0] in ("repro", "")
        ] == []

    def test_no_module_imports_it_inside_a_function(self):
        nested = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for function in ast.walk(tree):
                if not isinstance(
                    function, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                nested.extend(
                    f"{path.relative_to(SRC)}:{node.lineno}"
                    for name, node in _imports(function)
                    if name == "repro.tables"
                )
        assert nested == []
