"""Anatomy derivation: wall shift, palate extension, reference center."""

import math

import numpy as np
import pytest

from helpers import (
    ARC_END_DEG,
    ARC_START_DEG,
    PALATE_CENTER,
    WALL_X,
    on_arc,
    synthetic_anatomy,
)
from tractvar.anatomy import (
    FEMALE_THICKNESS_MM,
    MALE_THICKNESS_MM,
    Sex,
    build_speaker_anatomy,
    extend_palate,
    infer_anterior_wall,
    palatal_reference_center,
)
from tractvar.errors import DataError

from reference import Point2D, distance, points, polyline


def P(x, y):
    return Point2D(x, y)


def vertical_wall(x=-80.0, y_top=40.0, y_bottom=-40.0, step=5.0):
    ys = np.arange(y_top, y_bottom - step / 2, -step)
    return polyline([P(x, float(y)) for y in ys])


class TestSexDefaults:
    def test_thickness_values(self):
        assert Sex.FEMALE.default_thickness_mm == 5.8
        assert Sex.MALE.default_thickness_mm == 5.6
        assert FEMALE_THICKNESS_MM == 5.8
        assert MALE_THICKNESS_MM == 5.6

    def test_codes(self):
        assert Sex("F") is Sex.FEMALE
        assert Sex("M") is Sex.MALE


class TestInferAnteriorWall:
    def test_female_shift_is_exact(self):
        anterior = infer_anterior_wall(vertical_wall(x=-80.0), FEMALE_THICKNESS_MM)
        for p in points(anterior):
            assert p.x == -74.2

    def test_male_shift_is_exact(self):
        anterior = infer_anterior_wall(vertical_wall(x=-80.0), MALE_THICKNESS_MM)
        for p in points(anterior):
            assert p.x == -74.4

    def test_pointwise_translation(self):
        wall = polyline([P(-80, 30), P(-79, 10), P(-81, -10)])
        anterior = infer_anterior_wall(wall, 5.8)
        for before, after in zip(points(wall), points(anterior)):
            assert after.x == before.x + 5.8
            assert after.y == before.y

    def test_rejects_nonpositive_thickness(self):
        wall = vertical_wall()
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                infer_anterior_wall(wall, bad)


class TestExtendPalate:
    def test_junction_from_worked_example(self):
        # Ray through (-20, 15) -> (-25, 14) meets x = -74.2 at y = 4.16.
        palate = polyline([P(-10, 16), P(-20, 15), P(-25, 14)])
        anterior = infer_anterior_wall(vertical_wall(x=-80.0), FEMALE_THICKNESS_MM)
        extended = extend_palate(palate, anterior)
        # The junction is the last point not on the wall suffix; on a
        # vertical wall every suffix point shares x = -74.2 too, so find
        # it as the first point reaching the wall x.
        on_wall = [p for p in points(extended) if abs(p.x - (-74.2)) < 1e-9]
        junction = on_wall[0]
        assert junction.x == pytest.approx(-74.2, abs=1e-9)
        assert junction.y == pytest.approx(4.16, abs=1e-9)

    def test_prefix_is_original_palate(self):
        anat = synthetic_anatomy()
        n = len(points(anat.palate))
        assert points(anat.extended_palate)[:n] == points(anat.palate)

    def test_velar_steps_at_most_one_mm(self):
        anat = synthetic_anatomy()
        n = len(points(anat.palate))
        suffix_start = None
        for i, p in enumerate(points(anat.extended_palate)):
            if i >= n and any(
                p == w for w in points(anat.anterior_wall)
            ):
                suffix_start = i
                break
        assert suffix_start is not None
        velar = points(anat.extended_palate)[n - 1 : suffix_start]
        for a, b in zip(velar, velar[1:]):
            step = distance(a, b)
            assert 0.0 < step <= 1.0 + 1e-12

    def test_x_non_increasing_through_velum(self):
        anat = synthetic_anatomy()
        n = len(points(anat.palate))
        wall_xs = {w.x for w in points(anat.anterior_wall)}
        xs = []
        for p in points(anat.extended_palate)[n - 1 :]:
            xs.append(p.x)
            if p.x in wall_xs and p in points(anat.anterior_wall):
                break
        assert all(b <= a + 1e-12 for a, b in zip(xs, xs[1:]))

    def test_ends_at_most_inferior_retained_wall_point(self):
        anat = synthetic_anatomy()
        last = points(anat.extended_palate)[-1]
        inferior_wall = [
            w for w in points(anat.anterior_wall) if w.y < last.y + 1e-9
        ]
        assert last == points(anat.anterior_wall)[-1]
        assert all(w.y >= last.y for w in inferior_wall)

    def test_no_duplicate_points_at_seams(self):
        anat = synthetic_anatomy()
        pts = points(anat.extended_palate)
        for a, b in zip(pts, pts[1:]):
            assert (a.x, a.y) != (b.x, b.y)

    def test_wall_with_nothing_below_junction(self):
        palate = polyline([P(-10, 16), P(-20, 15), P(-25, 14)])
        # Anterior wall stops just under the junction height.
        anterior = polyline([P(-74.2, 40.0), P(-74.2, 4.16)])
        extended = extend_palate(palate, anterior)
        last = points(extended)[-1]
        assert last.x == pytest.approx(-74.2, abs=1e-9)
        assert last.y == pytest.approx(4.16, abs=1e-9)

    def test_junction_on_wall_within_tolerance(self):
        anat = synthetic_anatomy()
        n = len(points(anat.palate))
        for p in points(anat.extended_palate)[n:]:
            # Every extension point is on or anterior to the wall line.
            assert p.x >= WALL_X

    def test_rise_above_palate_rejected(self):
        palate = polyline([P(-10, 14), P(-20, 15), P(-25, 19)])
        anterior = polyline([P(-74.2, 70.0), P(-74.2, -40.0)])
        with pytest.raises(
            DataError,
            match=r"^palate extension meets the anterior wall 39\.4 mm above the "
            r"palate end; traces look inconsistent$",
        ):
            extend_palate(palate, anterior)

    def test_miss_is_no_intersection(self):
        palate = polyline([P(-10, 16), P(-20, 15), P(-25, 14)])
        anterior = polyline([P(-74.2, 40.0), P(-74.2, 30.0)])
        with pytest.raises(
            DataError, match=r"^ray from \(-25, 14\) along \(-5, -1\) never meets the trace$"
        ):
            extend_palate(palate, anterior)


class TestPalatalReferenceCenter:
    def test_recovers_arc_center(self):
        pts = [P(*on_arc(ARC_START_DEG - k * 3.25)) for k in range(20)]
        center = palatal_reference_center(polyline(pts))
        assert center[0] == pytest.approx(PALATE_CENTER[0], abs=1e-6)
        assert center[1] == pytest.approx(PALATE_CENTER[1], abs=1e-6)

    def test_collinear_palate_raises(self):
        pts = [P(-5.0 - 2.0 * k, 15.0 - 0.5 * k) for k in range(10)]
        with pytest.raises(DataError, match="^cannot fit a circle through collinear points$"):
            palatal_reference_center(polyline(pts))


class TestBuildSpeakerAnatomy:
    def test_full_synthetic_bundle(self):
        anat = synthetic_anatomy()
        assert anat.speaker_id == "synth"
        assert anat.thickness_mm == FEMALE_THICKNESS_MM
        for post, ant in zip(points(anat.posterior_wall), points(anat.anterior_wall)):
            assert ant.x == post.x + FEMALE_THICKNESS_MM
            assert ant.y == post.y
        assert anat.reference_center[0] == pytest.approx(PALATE_CENTER[0], abs=1e-6)
        assert anat.reference_center[1] == pytest.approx(PALATE_CENTER[1], abs=1e-6)
        lowest_palate = min(p.y for p in points(anat.palate))
        assert anat.reference_center[1] < lowest_palate

    def test_thickness_override_supersedes_sex(self):
        palate = polyline(
            [P(*on_arc(ARC_START_DEG - k * 0.5)) for k in range(131)]
        )
        wall = vertical_wall()
        anat = build_speaker_anatomy("s1", palate, wall, Sex.MALE, thickness_mm=7.5)
        assert anat.thickness_mm == 7.5
        assert points(anat.anterior_wall)[0].x == -80.0 + 7.5

    def test_upward_curving_palate_flagged(self):
        # A concave-up trace fits a circle whose center sits above it;
        # the reference-center sanity check must fire.  The message
        # leaves naming the speaker to the pipeline.
        xs = np.arange(-5.0, -46.0, -2.5)
        palate = polyline([P(float(x), 10.0 + 0.01 * (x + 25.0) ** 2) for x in xs])
        wall = vertical_wall()
        with pytest.raises(
            DataError,
            match=r"^palatal reference center \(.*\) is not below the palate \(min "
            r"palate y = .*\); the palate fit looks pathological$",
        ):
            build_speaker_anatomy("bad-speaker", palate, wall, Sex.FEMALE)

    def test_two_point_palate_is_degenerate_trace(self):
        # The soft-palate line through both points meets the wall, so
        # only the reference circle lacks points.
        palate = polyline([P(-10.0, 15.0), P(-40.0, 10.0)])
        with pytest.raises(DataError) as excinfo:
            build_speaker_anatomy("two", palate, vertical_wall(), Sex.FEMALE)
        assert str(excinfo.value) == (
            "palate trace has 2 points; a reference circle needs at least 3"
        )

    def test_collinear_palate_names_speaker(self):
        palate = polyline([P(-5.0 - 2.0 * k, 15.0 - 0.1 * k) for k in range(10)])
        wall = vertical_wall()
        # The pipeline puts the speaker id in front; the message names
        # only the failure.
        with pytest.raises(DataError) as excinfo:
            build_speaker_anatomy("flat-speaker", palate, wall, Sex.FEMALE)
        assert str(excinfo.value) == "cannot fit a circle through collinear points"

    def test_arc_angles_cover_synthetic_fixture(self):
        # Guard on the fixture itself: the tongue-body direction must lie
        # strictly inside the sampled arc or the expected values drift.
        assert ARC_END_DEG < 10.0 < ARC_START_DEG
        assert ARC_END_DEG < 33.75 < ARC_START_DEG
        assert math.isclose(on_arc(0.0)[0], PALATE_CENTER[0])
