"""The TV figure's drawing of missing values, pinned at its bytes."""

import math

import numpy as np

from tractvar.plots import tv_svg
from tractvar.tract_variables import TvTrajectory
from tractvar.tvcsv import TV_NAMES


def series_elements(svg, name):
    """The series elements drawn in one variable's panel, after its two
    axis lines and its label."""
    lines = svg.splitlines()
    start = lines.index(f'<g class="panel" id="panel-{name}">')
    return lines[start + 4 : lines.index("</g>", start)]


def test_missing_values_split_and_isolate_the_series():
    # LA misses frame 2, so it is drawn as two polylines; LP has only
    # frame 2, a one-frame run drawn as a marker; the rest have nothing.
    nan = math.nan
    values = np.full((5, len(TV_NAMES)), nan)
    values[:, 0] = [1.0, 2.0, nan, 3.0, 4.0]
    values[:, 1] = [nan, nan, -1.5, nan, nan]
    trajectory = TvTrajectory(
        np.array([0.0, 0.25, 0.5, 0.75, 1.0]), values, np.full(5, 2, dtype=np.int8)
    )
    svg = tv_svg(trajectory)
    style = 'class="series" fill="none" stroke="#1f4e79" stroke-width="1.5"'
    assert series_elements(svg, "LA") == [
        f'<polyline {style} points="70.00,88.00 250.50,61.33"/>',
        f'<polyline {style} points="611.50,34.67 792.00,8.00"/>',
    ]
    assert series_elements(svg, "LP") == [
        '<circle class="series" cx="431.00" cy="144.00" r="1.5" fill="#1f4e79"/>'
    ]
    for name in TV_NAMES[2:]:
        assert series_elements(svg, name) == []
