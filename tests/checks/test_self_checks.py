"""The source tree obeys the proof machine's source rules (tier-1 gate).

The rules live in :mod:`tests.checks.source_rules`; a source file that
does not parse fails this test with its ``SyntaxError``.
"""

from tests.checks.source_rules import SRC, source_violations


class TestSelfLint:
    def test_source_tree_lints_clean(self):
        assert (SRC / "repro" / "__init__.py").is_file()
        found = source_violations()
        details = "\n".join(
            f"{rule_id} {where}: {message}"
            for where, rule_id, message in found
        )
        assert found == [], f"RPR violations in src/:\n{details}"
