"""Edge cases of the shared diagnostic vocabulary.

Every analyzer funnels through :mod:`repro.analysis.diagnostics`, so
its corner behaviors — empty reports, mixed-origin aggregation,
severity ordering, location rendering — are load-bearing for all of
them at once.
"""

import pytest

from repro.analysis.diagnostics import (
    SEVERITIES,
    Diagnostic,
    errors,
    format_report,
)


def D(rule="x/rule", severity="error", message="boom", **kw):
    return Diagnostic(rule=rule, severity=severity, message=message, **kw)


class TestZeroFindings:
    def test_empty_report_is_just_the_summary(self):
        assert format_report([]) == "0 error(s), 0 warning(s)"

    def test_errors_of_empty_is_empty(self):
        assert errors([]) == []

    def test_notes_only_report_counts_zero(self):
        report = format_report([D(severity="note")])
        assert report.endswith("0 error(s), 0 warning(s)")
        assert "note: boom" in report


class TestMultiFileAggregation:
    """One report over findings from several analyzers and files."""

    def test_mixed_origins_all_render(self):
        diags = [
            D(rule="R003", path="src/repro/solvers/a.py", line=10),
            D(rule="ghost/read-in-window", path="src/repro/runtime/b.py",
              line=4),
            D(rule="plan/length-mismatch"),
        ]
        report = format_report(diags)
        assert "src/repro/solvers/a.py:10" in report
        assert "src/repro/runtime/b.py:4" in report
        assert "error: boom [plan/length-mismatch]" in report
        assert report.endswith("3 error(s), 0 warning(s)")

    def test_same_rule_across_files_sorted_by_location(self):
        diags = [
            D(rule="R009", path="z.py", line=1),
            D(rule="R009", path="a.py", line=9),
        ]
        lines = format_report(diags).splitlines()
        assert lines[0].startswith("a.py:9")
        assert lines[1].startswith("z.py:1")

    def test_counts_tally_across_files(self):
        diags = [
            D(path="a.py", line=1),
            D(severity="warning", path="b.py", line=2),
            D(severity="warning", path="c.py", line=3),
        ]
        assert format_report(diags).endswith("1 error(s), 2 warning(s)")


class TestSeverityOrdering:
    def test_errors_sort_before_warnings_before_notes(self):
        diags = [
            D(severity="note", rule="a"),
            D(severity="error", rule="b"),
            D(severity="warning", rule="c"),
        ]
        lines = format_report(diags).splitlines()[:-1]
        rendered = [line.split(":")[0] for line in lines]
        assert rendered == ["error", "warning", "note"]

    def test_severities_tuple_is_increasing_seriousness(self):
        assert SEVERITIES == ("note", "warning", "error")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            D(severity="fatal")


class TestLocationRendering:
    def test_path_without_line(self):
        assert D(path="a.py").location == "a.py"

    def test_no_location_renders_bare(self):
        assert str(D()) == "error: boom [x/rule]"

    def test_str_includes_rule_tag(self):
        assert str(D(path="a.py", line=3)).endswith("[x/rule]")
