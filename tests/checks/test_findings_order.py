"""Deterministic finding order across reporters and engines."""

import json

from repro.checks.audit import CheckReport
from repro.checks.findings import Finding, Severity, sort_findings
from repro.checks.reporters import render_json, render_text


def finding(path, rule="RPR005", severity=Severity.ERROR, message="m"):
    return Finding(rule, severity, path, message)


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

    def test_worst_severity_first_within_a_rule(self):
        warn = finding("src/x.py:3", severity=Severity.WARNING)
        err = finding("src/x.py:3", severity=Severity.ERROR)
        assert sort_findings([warn, err]) == [err, warn]

    def test_audit_target_paths_sort_by_text(self):
        targets = [
            finding("E7/task[x]/I", rule="AUD001"),
            finding("E10/task[x]/I", rule="AUD001"),
        ]
        assert sort_findings(targets) == sorted(
            targets, key=lambda f: f.path
        )

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

    def test_json_findings_come_out_sorted(self):
        document = json.loads(
            render_json(
                self.report(
                    [finding("src/x.py:10"), finding("src/x.py:9")]
                )
            )
        )
        assert [f["path"] for f in document["findings"]] == [
            "src/x.py:9",
            "src/x.py:10",
        ]

    def test_json_carries_scope_counters(self):
        document = json.loads(
            render_json(
                CheckReport(
                    scope="lint[src]",
                    findings=(),
                    targets_audited=3,
                    files_linted=7,
                )
            )
        )
        assert document["targets_audited"] == 3
        assert document["files_linted"] == 7
