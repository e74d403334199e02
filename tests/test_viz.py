"""Tests for the ASCII visualization helpers."""

from repro import viz
from repro.training.telemetry import TrainingReport


class TestBarChart:
    def test_labels_and_values_present(self):
        chart = viz.horizontal_bar_chart({"a": 1.0, "bb": 2.0}, width=10)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ") and "bb" in lines[1]
        assert "2" in lines[1]

    def test_longest_bar_is_max_value(self):
        chart = viz.horizontal_bar_chart({"x": 1.0, "y": 4.0}, width=8)
        x_line, y_line = chart.splitlines()
        assert y_line.count("█") == 8
        assert x_line.count("█") == 2

    def test_sorted_option(self):
        chart = viz.horizontal_bar_chart({"low": 1.0, "high": 9.0}, sort=True)
        assert chart.splitlines()[0].startswith("high")

    def test_empty(self):
        assert viz.horizontal_bar_chart({}) == ""

    def test_all_zero_values_draw_no_bars(self):
        chart = viz.horizontal_bar_chart({"a": 0.0, "b": 0.0}, width=5)
        assert "█" not in chart
        assert chart.splitlines() == ["a |       0", "b |       0"]

    def test_unit_follows_each_value(self):
        chart = viz.horizontal_bar_chart({"run": 1.5}, width=4, unit=" s")
        assert chart == "run | ████ 1.5 s"

    def test_labels_are_padded_to_one_column(self):
        chart = viz.horizontal_bar_chart({"a": 1.0, "longer": 2.0}, width=6)
        assert [line.index("|") for line in chart.splitlines()] == [7, 7]


class TestStackedBreakdown:
    def test_contains_legend_percentages(self):
        out = viz.stacked_breakdown({"rpc": 3.0, "ddp": 1.0}, width=40)
        assert "rpc 75.0%" in out
        assert "ddp 25.0%" in out
        assert out.startswith("[")

    def test_small_components_filtered(self):
        out = viz.stacked_breakdown({"big": 100.0, "tiny": 0.001}, width=40)
        assert "tiny" not in out

    def test_empty_breakdown(self):
        assert "empty" in viz.stacked_breakdown({})

    def test_bar_fills_exactly_the_width(self):
        bar = viz.stacked_breakdown({"a": 1.0, "b": 1.0, "c": 1.0}, width=20).splitlines()[0]
        assert len(bar) == 22 and bar[0] == "[" and bar[-1] == "]"

    def test_largest_component_gets_the_first_symbol(self):
        out = viz.stacked_breakdown({"small": 1.0, "large": 3.0}, width=8)
        bar, legend = out.splitlines()
        assert bar == "[######@@]"
        assert legend == "# large 75.0%  @ small 25.0%"

    def test_non_positive_components_are_left_out(self):
        out = viz.stacked_breakdown({"rpc": 2.0, "refund": -1.0, "idle": 0.0})
        assert "rpc 100.0%" in out
        assert "refund" not in out and "idle" not in out


class TestComparisonSummary:
    def test_comparison_summary(self):
        base = TrainingReport(
            mode="baseline", backend="cpu", dataset="d", arch="sage",
            num_machines=1, trainers_per_machine=1, epochs=1, total_simulated_time_s=2.0,
        )
        pref = TrainingReport(
            mode="prefetch", backend="cpu", dataset="d", arch="sage",
            num_machines=1, trainers_per_machine=1, epochs=1, total_simulated_time_s=1.0,
        )
        out = viz.comparison_summary(base, pref)
        assert "improvement: 50.0%" in out
        assert "speedup: 2.00x" in out
