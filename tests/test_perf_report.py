"""Tests for the report formatting helpers."""

import pytest

from repro.perf import (
    NSU3D_POINTS_72M,
    NSU3D_WORK,
    ScalingSeries,
    convergence_table,
    fill_summary_table,
    format_comparison,
    format_series_table,
    phase_table,
    scaling_series,
)


class TestSeriesTable:
    def _series(self):
        return scaling_series(
            "mg6", NSU3D_POINTS_72M, [128, 2008], NSU3D_WORK, mg_levels=6
        )

    def test_table_contains_cpu_rows(self):
        text = format_series_table([self._series()], base_cpus=128)
        assert "128" in text and "2008" in text
        assert "mg6" in text

    def test_tflops_column_optional(self):
        s = self._series()
        with_tf = format_series_table([s], base_cpus=128, show_tflops=True)
        without = format_series_table([s], base_cpus=128)
        assert "TF" in with_tf
        assert "TF" not in without

    def test_mismatched_cpu_counts_rejected(self):
        a = self._series()
        b = scaling_series("x", NSU3D_POINTS_72M, [128], NSU3D_WORK)
        with pytest.raises(ValueError):
            format_series_table([a, b])

    def test_empty_list(self):
        assert format_series_table([]) == ""

    def test_title_included(self):
        text = format_series_table([self._series()], title="Figure 14b")
        assert text.startswith("Figure 14b")

    def test_single_cpu_base_speedup_row(self):
        # a one-point series measured at its own base CPU count
        s = scaling_series("base", NSU3D_POINTS_72M, [128], NSU3D_WORK)
        text = format_series_table([s], base_cpus=128)
        assert "S=    128" in text


class TestFillSummaryTable:
    def test_empty_runs(self):
        assert fill_summary_table({}) == ""

    def test_zero_case_summary_renders(self):
        text = fill_summary_table(
            {"fill": {"cases": 0, "executed": 0, "failures": 0}},
            title="empty campaign:",
        )
        assert text.startswith("empty campaign:")
        assert "cases" in text and "failures" in text

    def test_union_of_rows_pads_missing_with_dash(self):
        text = fill_summary_table(
            {"a": {"cases": 2}, "b": {"cases": 2, "retries": 1}}
        )
        retries_row = [l for l in text.splitlines() if "retries" in l][0]
        assert "-" in retries_row


class TestPhaseTable:
    def test_empty_phases(self):
        assert phase_table({}) == ""

    def test_sorted_heaviest_first_with_share(self):
        phases = {
            "light": {"calls": 1, "seconds": 0.5, "cat": "comm"},
            "heavy": {"calls": 4, "seconds": 2.0, "cat": "solver"},
        }
        text = phase_table(phases, makespan=4.0, title="breakdown:")
        lines = text.splitlines()
        assert lines[0] == "breakdown:"
        assert "% span" in lines[1]
        body = lines[3:]
        assert body[0].startswith("heavy") and body[1].startswith("light")
        assert "50.0%" in body[0] and "12.5%" in body[1]

    def test_no_makespan_omits_share_column(self):
        text = phase_table({"p": {"calls": 1, "seconds": 1.0, "cat": "x"}})
        assert "% span" not in text
        assert "p" in text and "1.000000" in text


class TestComparison:
    def test_numeric_ratio(self):
        line = format_comparison("speedup", 2044, 2031)
        assert "2044" in line and "2031" in line
        assert "x0.99" in line

    def test_non_numeric_paper_value(self):
        line = format_comparison("shape", "superlinear", 2288)
        assert "superlinear" in line
        assert "x" not in line.split("measured")[1].split()[1]

    def test_zero_paper_value_no_ratio(self):
        line = format_comparison("x", 0, 5)
        assert "of paper" not in line


class TestConvergenceTable:
    def test_columns_and_sampling(self):
        hist = {
            "4-level": [1.0, 0.5, 0.25, 0.125],
            "6-level": [1.0, 0.25, 0.06],
        }
        text = convergence_table(hist, every=2)
        assert "4-level" in text and "6-level" in text
        assert "1.000e+00" in text
        # shorter histories padded with '-'
        assert "-" in text.splitlines()[-1]


class TestScalingSeriesMethods:
    def test_speedup_requires_known_base(self):
        s = ScalingSeries(label="x", cpus=[64, 128],
                          seconds_per_cycle=[2.0, 1.0],
                          useful_flops=[1e12, 1e12])
        assert s.speedup(64) == [64.0, 128.0]
        with pytest.raises(ValueError):
            s.speedup(999)

    def test_tflops(self):
        s = ScalingSeries(label="x", cpus=[64],
                          seconds_per_cycle=[2.0],
                          useful_flops=[4e12])
        assert s.tflops() == [pytest.approx(2.0)]
