"""Tests for the text table and figure renderers."""

import pytest

from repro.reporting.figures import (
    bar_chart,
    spike_plot,
    time_series,
    traceroute_tree,
    world_map,
)
from repro.reporting.tables import render_table


class TestTable:
    def test_alignment_and_title(self):
        text = render_table(
            ("Region", "Count"),
            [("Europe", 1664), ("Asia", 190)],
            title="Table 1",
            align_right=(1,),
        )
        lines = text.splitlines()
        assert lines[0] == "Table 1"
        assert "Europe" in text and "1664" in text
        # Right-aligned numbers end the line.
        assert lines[-1].endswith("190")

    def test_float_formatting(self):
        text = render_table(("x",), [(98.973456,)])
        assert "98.97" in text

    def test_column_widths_fit_content(self):
        text = render_table(("a", "b"), [("longvalue", 1)])
        header, separator, row = text.splitlines()
        assert len(separator) >= len("longvalue")


class TestBarChart:
    def test_basic_rendering(self):
        text = bar_chart(["one", "two"], [50.0, 100.0], floor=0, ceiling=100)
        lines = text.splitlines()
        assert "#####....." in lines[0]
        assert "##########" in lines[1]
        assert "50.00" in lines[0]

    def test_floor_zoom(self):
        """The Figure 2 y-axis starts at 90%."""
        text = bar_chart(["v"], [95.0], floor=90, ceiling=100)
        assert "#####....." in text

    def test_values_clamped(self):
        text = bar_chart(["v"], [150.0], floor=0, ceiling=100)
        assert "##########" in text

    def test_parallel_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        assert bar_chart([], []) == "(no data)"


class TestSpikePlot:
    def test_spikes_survive_downsampling(self):
        """The Figure 3 invariant: a single 100% spike among thousands
        of zeros must stay visible (max-pooling, not averaging)."""
        values = [0.0] * 1000
        values[500] = 1.0
        text = spike_plot(values)
        assert "█" in text

    def test_zero_everywhere(self):
        text = spike_plot([0.0] * 100)
        assert "█" not in text

    def test_height_label(self):
        assert spike_plot([0.5], height_label="row").startswith("row ")

    def test_empty(self):
        assert spike_plot([]) == "(no data)"


class TestTimeSeries:
    def test_markers_plotted(self):
        text = time_series([(2000, 1.0, "Medina"), (2015, 82.0, "measured")])
        assert "M" in text
        assert "2000" in text and "2015" in text

    def test_y_axis_labels(self):
        text = time_series([(2000, 0.0, "x")])
        assert "100%" in text and "0%" in text

    def test_empty(self):
        assert time_series([]) == "(no data)"


class TestWorldMap:
    def test_density_shading(self):
        europe = [(50.0, 10.0)] * 50
        lonely = [(-30.0, -60.0)]
        text = world_map(europe + lonely)
        assert "@" in text or "#" in text  # dense cluster
        assert "." in text  # lonely point

    def test_out_of_range_points_ignored(self):
        text = world_map([(999.0, 999.0)])
        assert set(text) <= {" ", "\n"}

    def test_empty(self):
        assert world_map([]) == "(no data)"


class TestTracerouteTree:
    def test_glyphs(self):
        text = traceroute_tree([[(1, True), (2, False), (3, False)]])
        assert "-ooXX" not in text  # sanity: exactly per-hop glyphs
        assert "oXX" in text

    def test_truncation_notice(self):
        paths = [[(1, True)]] * 30
        text = traceroute_tree(paths)
        assert "6 more paths" in text
