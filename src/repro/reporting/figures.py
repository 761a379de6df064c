"""Plain-text figure rendering: bar charts, spike plots, a world map.

Each function renders the data behind one of the paper's figures as
terminal-friendly text, so examples and the CLI can show the
reproduced result without a plotting dependency.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Characters for vertical resolution inside one text row.
_BLOCKS = " ▁▂▃▄▅▆▇█"


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    unit: str = "",
    floor: float | None = None,
    ceiling: float | None = None,
) -> str:
    """Horizontal 40-column bar chart, one labelled row per value.

    ``floor``/``ceiling`` pin the axis (e.g. 90-100 % to match the
    zoomed y-axis of Figure 2).
    """
    width = 40
    if len(labels) != len(values):
        raise ValueError("labels and values must be parallel")
    if not values:
        return "(no data)"
    low = floor if floor is not None else min(values)
    high = ceiling if ceiling is not None else max(values)
    span = high - low or 1.0
    label_width = max(len(label) for label in labels)
    rows = []
    for label, value in zip(labels, values):
        filled = int(round((min(max(value, low), high) - low) / span * width))
        bar = "#" * filled + "." * (width - filled)
        rows.append(f"{label.rjust(label_width)} |{bar}| {value:.2f}{unit}")
    return "\n".join(rows)


def per_trace_bars(groups: Sequence[tuple[str, Sequence[float]]]) -> str:
    """Figure 2/5-style rendering: one character column per trace.

    ``groups`` holds ``(vantage label, per-trace values)`` in display
    order; bars within a group abut, groups are separated by spaces —
    mirroring how the paper plots its 210 bars on a 90-100 % axis.
    """
    floor, ceiling = 90.0, 100.0
    if not groups:
        return "(no data)"
    span = ceiling - floor or 1.0
    columns: list[str] = []
    labels_row: list[str] = []
    for label, values in groups:
        glyphs = []
        for value in values:
            clamped = min(max(value, floor), ceiling)
            level = int(round((clamped - floor) / span * (len(_BLOCKS) - 1)))
            glyphs.append(_BLOCKS[level])
        block = "".join(glyphs) or " "
        columns.append(block)
        short = label.split()[-1][: max(len(block), 1)]
        labels_row.append(short.ljust(len(block)))
    bars = " ".join(columns)
    names = " ".join(labels_row)
    return f"{ceiling:5.0f}% |{bars}|\n{floor:5.0f}% +{'-' * len(bars)}+\n        {names}"


def spike_plot(values: Sequence[float], height_label: str = "") -> str:
    """Figure 3-style spike plot: one column per server, 0..1 heights.

    Down-samples to at most 100 columns by taking the *maximum* within
    each bucket, because the interesting feature is the tall, thin
    spikes — a mean would erase exactly what the figure exists to show.
    """
    width = 100
    if not values:
        return "(no data)"
    bucket_count = min(width, len(values))
    per_bucket = len(values) / bucket_count
    columns = []
    for bucket in range(bucket_count):
        start = int(bucket * per_bucket)
        end = max(start + 1, int((bucket + 1) * per_bucket))
        peak = max(values[start:end])
        level = int(round(peak * (len(_BLOCKS) - 1)))
        columns.append(_BLOCKS[level])
    prefix = f"{height_label} " if height_label else ""
    return f"{prefix}|{''.join(columns)}|"


def time_series(points: Sequence[tuple[float, float, str]]) -> str:
    """Scatter a labelled (x, y, label) series on a text grid (Fig 6)."""
    width, height, y_max = 64, 12, 100.0
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    x_low, x_high = min(xs), max(xs)
    x_span = x_high - x_low or 1.0
    grid = [[" " for _ in range(width)] for _ in range(height)]
    for x, y, label in points:
        col = int(round((x - x_low) / x_span * (width - 1)))
        row = height - 1 - int(round(min(y, y_max) / y_max * (height - 1)))
        marker = label[0].upper() if label else "*"
        grid[row][col] = marker
    lines = []
    for index, row in enumerate(grid):
        y_value = y_max * (height - 1 - index) / (height - 1)
        lines.append(f"{y_value:5.0f}% |" + "".join(row))
    lines.append("       " + "-" * width)
    lines.append(f"       {x_low:.0f}" + " " * (width - 10) + f"{x_high:.0f}")
    return "\n".join(lines)


def world_map(points: Sequence[tuple[float, float]]) -> str:
    """Figure 1-style density map from (latitude, longitude) points."""
    width, height = 72, 24
    if not points:
        return "(no data)"
    grid = [[0 for _ in range(width)] for _ in range(height)]
    for lat, lon in points:
        col = int((lon + 180.0) / 360.0 * (width - 1))
        row = int((90.0 - lat) / 180.0 * (height - 1))
        if 0 <= row < height and 0 <= col < width:
            grid[row][col] += 1
    shades = " .:*#@"
    lines = []
    for row in grid:
        line = []
        for count in row:
            index = min(len(shades) - 1, count if count < 3 else 3 + int(math.log2(count)))
            index = min(index, len(shades) - 1)
            line.append(shades[index])
        lines.append("".join(line))
    return "\n".join(lines)


def traceroute_tree(paths: Sequence[Sequence[tuple[int, bool]]]) -> str:
    """Figure 4-style rendering: one line per path, hops as glyphs.

    Each path is a sequence of ``(responder, mark_preserved)``; hops
    that kept the mark render ``o`` (green in the paper), hops where
    the returned ECN field differed render ``X`` (red), giving the
    paper's "runs of red after the mark is stripped".  At most 24
    paths are drawn.
    """
    max_paths = 24
    lines = []
    for path in list(paths)[:max_paths]:
        glyphs = "".join("o" if preserved else "X" for _, preserved in path)
        lines.append(f"src -{glyphs}-> dst")
    if len(paths) > max_paths:
        lines.append(f"... ({len(paths) - max_paths} more paths)")
    return "\n".join(lines)
