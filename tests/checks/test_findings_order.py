"""Deterministic finding order across the report and engines."""

from repro.checks import CheckReport
from repro.checks.findings import Finding, sort_findings
from repro.checks.reporters import render_text


def finding(path, rule="RPR005", message="m"):
    return Finding(rule, path, message)


class TestSortFindings:
    def test_numeric_line_order_not_lexicographic(self):
        nine, ten = finding("src/x.py:9"), finding("src/x.py:10")
        assert sort_findings([ten, nine]) == [nine, ten]

    def test_path_groups_before_line(self):
        a, b = finding("src/a.py:50"), finding("src/b.py:1")
        assert sort_findings([b, a]) == [a, b]

    def test_rule_id_breaks_location_ties(self):
        first = finding("src/x.py:3", rule="RPR004")
        second = finding("src/x.py:3", rule="RPR005")
        assert sort_findings([second, first]) == [first, second]

    def test_message_breaks_rule_ties(self):
        first = finding("src/x.py:3", message="a")
        second = finding("src/x.py:3", message="b")
        assert sort_findings([second, first]) == [first, second]

    def test_idempotent_and_input_order_independent(self):
        findings = [
            finding("src/x.py:10"),
            finding("src/x.py:9"),
            finding("src/a.py:2", rule="RPR008"),
        ]
        once = sort_findings(findings)
        assert sort_findings(once) == once
        assert sort_findings(list(reversed(findings))) == once


class TestReportersUseTheOrder:
    def report(self, findings):
        return CheckReport(scope="test", findings=tuple(findings))

    def test_text_rows_come_out_sorted(self):
        text = render_text(
            self.report(
                [finding("src/x.py:10"), finding("src/x.py:9")]
            )
        )
        assert text.index("src/x.py:9") < text.index("src/x.py:10")
