"""Tests for the per-trace bar rendering (the paper's Figure 2 form)."""

from repro.reporting.figures import per_trace_bars


class TestPerTraceBars:
    def test_one_column_per_trace(self):
        text = per_trace_bars(
            [("Perkins home", [99.0, 98.0, 97.5]), ("EC2 Vir", [98.0, 98.5])]
        )
        bar_line = text.splitlines()[0]
        inner = bar_line.split("|")[1]
        # 3 + 2 bars with a single separating space.
        assert len(inner) == 3 + 1 + 2

    def test_height_tracks_value(self):
        text = per_trace_bars([("v", [90.0, 100.0])])
        inner = text.splitlines()[0].split("|")[1]
        assert inner[0] == " "  # at the floor
        assert inner[1] == "█"  # at the ceiling

    def test_values_clamped(self):
        text = per_trace_bars([("v", [50.0, 150.0])])
        inner = text.splitlines()[0].split("|")[1]
        assert inner == " █"

    def test_axis_labels(self):
        text = per_trace_bars([("v", [95.0])])
        assert "100%" in text
        assert "90%" in text

    def test_empty(self):
        assert per_trace_bars([]) == "(no data)"

    def test_group_label_row_present(self):
        text = per_trace_bars([("McQuistin home", [95.0] * 6)])
        assert "home" in text.splitlines()[-1]
