"""The figures: the TV figure's drawing of missing values, pinned at its
bytes, and both figures against the point-at-a-time reference in
`tests/reference.py`, byte for byte."""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

import reference
from helpers import synthetic_anatomy
from tractvar.geometry import Polyline
from tractvar.plots import anatomy_svg, tv_svg
from tractvar.tract_variables import TvTrajectory
from tractvar.tvcsv import TV_NAMES

nan = math.nan


def series_elements(svg, name):
    """The series elements drawn in one variable's panel, after its two
    axis lines and its label."""
    lines = svg.splitlines()
    start = lines.index(f'<g class="panel" id="panel-{name}">')
    return lines[start + 4 : lines.index("</g>", start)]


def trajectory_of(t, values):
    values = np.array(values, dtype=np.float64).reshape(len(t), len(TV_NAMES))
    return TvTrajectory(np.array(t, dtype=np.float64), values, np.zeros(len(t), np.int8))


def test_missing_values_split_and_isolate_the_series():
    # LA misses frame 2, so it is drawn as two polylines; LP has only
    # frame 2, a one-frame run drawn as a marker; the rest have nothing.
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


# Each column of a drawn trajectory: mixed values and gaps, a constant
# with gaps, nothing at all, or signed zeros with gaps.
_cell = st.floats(-1e3, 1e3) | st.sampled_from([nan, 0.0, -0.0])
_columns = st.sampled_from(["mixed", "constant", "missing", "zeros"])


@st.composite
def trajectories(draw):
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 40))
    t0 = draw(st.floats(-1e3, 1e3))
    rate = draw(st.floats(1.0, 1e3))
    columns = []
    for _ in TV_NAMES:
        kind = draw(_columns)
        if kind == "mixed":
            cells = _cell
        elif kind == "constant":
            cells = st.sampled_from([draw(st.floats(-1e3, 1e3)), nan])
        elif kind == "missing":
            cells = st.just(nan)
        else:
            cells = st.sampled_from([0.0, -0.0, nan])
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return trajectory_of(t0 + np.arange(n) / rate, np.array(columns).T)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(trajectory=trajectories())
@example(trajectory=trajectory_of([], []))
@example(trajectory=trajectory_of([3.5], [1.0, nan, 0.0, -0.0, 7.0, nan]))
@example(trajectory=trajectory_of([0.0, 1.0], [[1.0, nan, 0.0, 5.0, nan, 2.0],
                                               [2.0, nan, -0.0, 5.0, 4.0, nan]]))
@example(
    # Gaps at the start, middle and end; one-frame runs between gaps.
    trajectory=trajectory_of(
        np.arange(7) / 145.0,
        np.array([
            [nan, nan, 1.0, 2.0, nan, 3.0, 4.0],
            [1.0, 2.0, nan, 3.0, nan, nan, nan],
            [nan, 1.0, nan, 2.0, nan, 3.0, nan],
            [5.0, 5.0, nan, 5.0, 5.0, 5.0, 5.0],
            [nan] * 7,
            [0.0, -0.0, nan, -0.0, 0.0, nan, 0.0],
        ]).T,
    )
)
def test_tv_svg_matches_the_point_at_a_time_reference(trajectory):
    assert tv_svg(trajectory) == reference.tv_svg(trajectory)


def moved(anat, scale, dx, dy):
    """`anat` with every trace and its reference center scaled about the
    origin, then translated."""

    def move(xy):
        return np.asarray(xy) * scale + (dx, dy)

    return dataclasses.replace(
        anat,
        palate=Polyline(move(anat.palate.xy)),
        posterior_wall=Polyline(move(anat.posterior_wall.xy)),
        anterior_wall=Polyline(move(anat.anterior_wall.xy)),
        extended_palate=Polyline(move(anat.extended_palate.xy)),
        reference_center=tuple(move(anat.reference_center).tolist()),
    )


FIXTURE = synthetic_anatomy()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    scale=st.floats(1e-3, 1e3),
    dx=st.floats(-1e4, 1e4),
    dy=st.floats(-1e4, 1e4),
)
@example(scale=1.0, dx=0.0, dy=0.0)
@example(scale=1.0, dx=-0.0, dy=-0.0)
def test_anatomy_svg_matches_the_point_at_a_time_reference(scale, dx, dy):
    anat = moved(FIXTURE, scale, dx, dy)
    assert anatomy_svg(anat) == reference.anatomy_svg(anat)
