"""Geometry primitives: worked examples frozen by hand, then randomized
property checks against independent brute-force routes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tractvar import geometry
from tractvar.errors import DataError, DegenerateAngle
from tractvar.geometry import (
    MIN_ANGLE_RADIUS,
    Polyline,
    circle_polyline_contacts,
    extend_line_to_polyline,
    fit_circle,
)

import reference
from reference import (
    Circle,
    ClearanceResult,
    Point2D,
    angle_from_reference,
    circumcircle,
    coords,
    distance,
    fitted_circle,
    point_polyline_clearance,
    point_segment_distance,
    points,
    polyline,
)
from helpers import synthetic_anatomy


# `reference.circumcircle`'s message for a flat triple, up to its area, as a regex.
TRIPLE = r"points are collinear within tolerance \(twice area = "


def P(x, y):
    return Point2D(x, y)


class TestPolyline:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            polyline([P(0, 0)])

    def test_rejects_repeated_consecutive_points(self):
        with pytest.raises(ValueError):
            polyline([P(0, 0), P(0, 0), P(1, 1)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"^non-finite coordinates \(nan, 0\.0\)$"):
            polyline([P(0, 0), P(float("nan"), 0.0)])
        with pytest.raises(ValueError, match=r"^non-finite coordinates \(0\.0, inf\)$"):
            polyline([P(0.0, float("inf")), P(1, 1)])

    def test_cannot_change_after_construction(self):
        xy = np.array([[-1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        trace = Polyline(xy)
        with pytest.raises(ValueError):
            trace.xy[0, 0] = 5.0
        px, py = np.array([0.0, 2.0]), np.array([0.0, 0.5])
        before = [a.tolist() for a in trace.nearest_many(px, py)]
        xy[:] = 7.0
        assert trace.xy.tolist() == [[-1.0, 1.0], [1.0, 1.0], [1.0, -1.0]]
        assert [a.tolist() for a in trace.nearest_many(px, py)] == before

    def test_nearest_many_matches_point_reference(self):
        # Blocks of NEAREST_CHUNK points, a partial last block, and exact
        # ties between segments (grid points against a square wave).
        rng = np.random.default_rng(406)
        trace = polyline([P(-1, 1), P(1, 1), P(1, -1), P(3, -1), P(3, 1)])
        px = np.concatenate([rng.uniform(-4, 6, 150), np.arange(-2.0, 5.0)])
        py = np.concatenate([rng.uniform(-4, 4, 150), np.zeros(7)])
        got = zip(*(a.tolist() for a in trace.nearest_many(px, py)))
        want = [reference.nearest(trace, x, y) for x, y in zip(px, py)]
        assert repr(list(got)) == repr(want)


class TestDistance:
    def test_three_four_five_triangle(self):
        # 6-8-10 triangle scaled onto awkward coordinates.
        assert distance(P(-1.5, 2.0), P(4.5, -6.0)) == 10.0

    def test_metric_properties_random(self):
        rng = np.random.default_rng(101)
        pts = rng.uniform(-100, 100, size=(3000, 3, 2))
        for a, b, c in pts:
            pa, pb, pc = P(*a), P(*b), P(*c)
            dab = distance(pa, pb)
            assert dab == distance(pb, pa)
            assert dab >= 0.0
            assert distance(pa, pa) == 0.0
            assert dab <= distance(pa, pc) + distance(pc, pb) + 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            ax, ay, bx, by, tx, ty = rng.uniform(-50, 50, 6)
            d0 = distance(P(ax, ay), P(bx, by))
            d1 = distance(P(ax + tx, ay + ty), P(bx + tx, by + ty))
            assert d1 == pytest.approx(d0, rel=1e-12, abs=1e-12)


class TestPointSegmentDistance:
    def test_perpendicular_foot(self):
        d, q = point_segment_distance(P(0, 3), P(-2, 0), P(2, 0))
        assert d == 3.0
        assert (q.x, q.y) == (0.0, 0.0)

    def test_clamps_to_endpoint(self):
        d, q = point_segment_distance(P(5, 0), P(-2, 0), P(2, 0))
        assert d == 3.0
        assert (q.x, q.y) == (2.0, 0.0)

    def test_point_on_segment_is_zero(self):
        d, q = point_segment_distance(P(0, 0), P(-1, 0), P(1, 0))
        assert d == 0.0
        assert (q.x, q.y) == (0.0, 0.0)

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ValueError):
            point_segment_distance(P(0, 1), P(2, 2), P(2, 2))


class TestPointPolylineClearance:
    def test_simple_corridor(self):
        trace = polyline([P(-10, 8), P(10, 8)])
        res = point_polyline_clearance(P(0, 0), trace)
        assert res.distance == 8.0
        assert (res.closest_trace_point.x, res.closest_trace_point.y) == (0.0, 8.0)
        assert res.closest_object_point == P(0, 0)
        assert res.segment_index == 0

    def test_vertex_coincidence_is_zero(self):
        trace = polyline([P(-1, 0), P(0, 1), P(1, 0)])
        res = point_polyline_clearance(P(0, 1), trace)
        assert res.distance == 0.0

    def test_tie_breaks_to_lowest_segment(self):
        # (0, 0) is exactly 1.0 from both the top and the right segment.
        trace = polyline([P(-1, 1), P(1, 1), P(1, -1)])
        res = point_polyline_clearance(P(0, 0), trace)
        assert res.distance == 1.0
        assert res.segment_index == 0

    def test_matches_segmentwise_scan(self):
        # Dual route: the vectorized query against a plain loop over
        # segments using the scalar distance.
        rng = np.random.default_rng(404)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            pts = []
            x = rng.uniform(-40, -20)
            for _k in range(n):
                y = rng.uniform(-20, 20)
                pts.append(P(x, y))
                x += rng.uniform(0.3, 4.0)
            trace = polyline(pts)
            q = P(rng.uniform(-50, 10), rng.uniform(-30, 30))
            res = point_polyline_clearance(q, trace)
            best = min(
                point_segment_distance(q, pts[i], pts[i + 1])[0]
                for i in range(n - 1)
            )
            assert res.distance == pytest.approx(best, abs=1e-6)

    def test_closest_point_lies_on_named_segment(self):
        rng = np.random.default_rng(405)
        trace = polyline([P(-30, 5), P(-20, 9), P(-10, 4), P(0, 7)])
        for _ in range(200):
            q = P(rng.uniform(-35, 5), rng.uniform(-10, 20))
            res = point_polyline_clearance(q, trace)
            a = points(trace)[res.segment_index]
            b = points(trace)[res.segment_index + 1]
            d, _ = point_segment_distance(res.closest_trace_point, a, b)
            assert d <= 1e-9


class TestCircumcircle:
    def test_right_triangle(self):
        c = circumcircle(P(0, 0), P(2, 0), P(0, 2))
        assert c.center.x == pytest.approx(1.0, abs=1e-12)
        assert c.center.y == pytest.approx(1.0, abs=1e-12)
        assert c.radius == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_tongue_like_triple(self):
        # Perpendicular-bisector solve by hand: the bisector of the outer
        # pair is x = -20; equating squared distances to (-10, 8) and
        # (-20, 12) gives y = -2.5, hence radius 14.5.
        c = circumcircle(P(-10, 8), P(-20, 12), P(-30, 8))
        assert c.center.x == pytest.approx(-20.0, abs=1e-9)
        assert c.center.y == pytest.approx(-2.5, abs=1e-9)
        assert c.radius == pytest.approx(14.5, rel=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DataError, match=f"^{TRIPLE}0\\.000e\\+00\\)$"):
            circumcircle(P(0, 0), P(1, 1), P(2, 2))

    def test_near_collinear_within_tolerance_raises(self):
        # Twice-area here is 2e-7, under the 1e-6 threshold.
        with pytest.raises(DataError, match=f"^{TRIPLE}2\\.000e-07\\)$"):
            circumcircle(P(0, 0), P(1, 1e-7), P(2, 0))

    def test_equidistance_random(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 1000:
            (ax, ay), (bx, by), (cx, cy) = rng.uniform(-50, 50, size=(3, 2))
            cross2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if abs(cross2) < 1e-3:
                continue
            circ = circumcircle(P(ax, ay), P(bx, by), P(cx, cy))
            for px, py in ((ax, ay), (bx, by), (cx, cy)):
                assert distance(circ.center, P(px, py)) == pytest.approx(
                    circ.radius, rel=1e-9, abs=1e-9
                )
            done += 1

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(12)
        tri = [P(-10, 8), P(-20, 12), P(-30, 8)]
        r0 = circumcircle(*tri).radius
        for _ in range(200):
            ang = rng.uniform(0, 2 * math.pi)
            tx, ty = rng.uniform(-30, 30, 2)
            ca, sa = math.cos(ang), math.sin(ang)
            moved = [
                P(ca * p.x - sa * p.y + tx, sa * p.x + ca * p.y + ty) for p in tri
            ]
            assert circumcircle(*moved).radius == pytest.approx(r0, rel=1e-9)


# What `fit_circle` says of a point spread flat within TOL_COLLINEAR.
COLLINEAR = "cannot fit a circle through collinear points"


def kasa_objective(xs, ys, cx, cy, r):
    return float(np.sum(((xs - cx) ** 2 + (ys - cy) ** 2 - r * r) ** 2))


class TestFitCircle:
    def test_exact_on_noiseless_circle(self):
        angles = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        pts = [P(3.0 + 5.0 * math.cos(a), -2.0 + 5.0 * math.sin(a)) for a in angles]
        c = fitted_circle(coords(pts))
        assert c.center.x == pytest.approx(3.0, abs=1e-9)
        assert c.center.y == pytest.approx(-2.0, abs=1e-9)
        assert c.radius == pytest.approx(5.0, abs=1e-9)

    def test_three_points_match_circumcircle(self):
        tri = [P(-10, 8), P(-20, 12), P(-30, 8)]
        fitted = fitted_circle(coords(tri))
        direct = circumcircle(*tri)
        assert fitted.center.x == pytest.approx(direct.center.x, abs=1e-9)
        assert fitted.center.y == pytest.approx(direct.center.y, abs=1e-9)
        assert fitted.radius == pytest.approx(direct.radius, rel=1e-9)

    def test_collinear_spread_raises(self):
        pts = [P(float(k), 2.0 * k - 7.0) for k in range(12)]
        with pytest.raises(DataError, match=f"^{COLLINEAR}$"):
            fit_circle(coords(pts))

    @pytest.mark.parametrize("dx, dy", [(1, 0), (0, 1), (1, 1), (3, 7)])
    def test_exactly_collinear_raises(self, dx, dy):
        # Along 0, 90 and 45 degrees and an integer direction; every
        # coordinate is an integer, so the points are exactly collinear.
        pts = [P(-40.0 + dx * k, 12.0 + dy * k) for k in range(12)]
        with pytest.raises(DataError, match=f"^{COLLINEAR}$"):
            fit_circle(coords(pts))

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.floats(-200.0, 200.0, allow_subnormal=False),
                st.floats(-200.0, 200.0, allow_subnormal=False),
            ),
            min_size=3,
            max_size=12,
        )
    )
    def test_spread_matches_the_eigensolver(self, pts):
        """The closed-form principal axis gives the `np.linalg.eigh`
        oracle's collinearity measure within 1e-12 relative wherever the
        scatter's eigenvalues are distinct.  At the isotropic tie, equal
        eigenvalues, every direction is principal and the two may take
        different ones (a square's box is 2 along a side and 4 along a
        diagonal), so sets within 1e-3 of the tie are skipped.  For flat
        sets, whose deviations are rounding error, the measure agrees to
        1e-12 of the larger eigenvalue, far below TOL_COLLINEAR."""
        xs, ys = np.array(pts).T.copy()
        u = xs - xs.mean()
        v = ys - ys.mean()
        lo, hi = np.linalg.eigvalsh(
            [[np.dot(u, u), np.dot(u, v)], [np.dot(u, v), np.dot(v, v)]]
        )
        assume(hi - lo > 1e-3 * hi)
        got = geometry._spread_twice_area(xs, ys)
        want = reference.spread_twice_area(xs, ys)
        if lo >= 1e-6 * hi:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        else:
            assert abs(got - want) <= 1e-12 * hi

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_circle(coords([P(0, 0), P(1, 0)]))

    def test_overflowing_radius_raises(self):
        # An arc 2e100 mm wide and 1e-100 mm high is not collinear (its
        # spread is 1.3 mm^2, above TOL_COLLINEAR) and its moments are
        # finite, but its radius, about 5e299 mm, squares past the float
        # range.
        with pytest.raises(
            DataError,
            match="^fit produced a squared radius of inf, not a positive finite number$",
        ):
            fit_circle(np.array([(-1e100, 0.0), (0.0, 1e-100), (1e100, 0.0)]))

    def test_symmetric_noise_against_grid_search_oracle(self):
        # Independent oracle: brute grid over candidate centers, radius
        # chosen optimally per center; the fit must reach an objective at
        # least as low and land near the oracle argmin.
        eps = 0.01
        angles = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        radii = 5.0 + eps * np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
        xs = 3.0 + radii * np.cos(angles)
        ys = -2.0 + radii * np.sin(angles)
        fitted = fitted_circle(coords([P(float(x), float(y)) for x, y in zip(xs, ys)]))

        best = (math.inf, None, None)
        for cx in np.linspace(3.0 - 0.05, 3.0 + 0.05, 51):
            for cy in np.linspace(-2.0 - 0.05, -2.0 + 0.05, 51):
                r = math.sqrt(float(np.mean((xs - cx) ** 2 + (ys - cy) ** 2)))
                obj = kasa_objective(xs, ys, cx, cy, r)
                if obj < best[0]:
                    best = (obj, cx, cy)
        fit_obj = kasa_objective(xs, ys, fitted.center.x, fitted.center.y, fitted.radius)
        assert fit_obj <= best[0] + 1e-12
        assert abs(fitted.center.x - best[1]) <= 2e-3
        assert abs(fitted.center.y - best[2]) <= 2e-3
        assert abs(fitted.center.x - 3.0) <= 2 * eps
        assert abs(fitted.center.y - (-2.0)) <= 2 * eps

    def test_recovery_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            cx, cy = rng.uniform(-80, 80, 2)
            r = rng.uniform(1.0, 40.0)
            n = int(rng.integers(8, 65))
            angles = rng.uniform(0, 2 * math.pi, n)
            pts = [
                P(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles
            ]
            try:
                c = fitted_circle(coords(pts))
            except DataError as exc:
                assert str(exc) == COLLINEAR
                continue
            scale = max(1.0, r)
            assert abs(c.center.x - cx) <= 1e-9 * scale * 10
            assert abs(c.center.y - cy) <= 1e-9 * scale * 10
            assert abs(c.radius - r) <= 1e-9 * scale * 10


def circle_polyline_clearance(circle, trace):
    """`circle_polyline_contacts` for one circle, as a ClearanceResult."""
    c = circle.center
    index, center_dist, px, py, ox, oy = (
        a.item()
        for a in circle_polyline_contacts(
            np.array([c.x]), np.array([c.y]), circle.radius, trace
        )
    )
    return ClearanceResult(
        distance=center_dist - circle.radius,
        closest_trace_point=P(px, py),
        closest_object_point=P(ox, oy),
        segment_index=index,
    )


class TestCirclePolylineClearance:
    def test_matches_point_reference(self):
        # One batched call over 300 circles, so that the contacts cross
        # several NEAREST_CHUNK blocks, against the scalar twin per circle.
        rng = np.random.default_rng(34)
        trace = polyline([P(-30, 10), P(-15, 14), P(0, 9), P(10, 12)])
        circles = [
            Circle(P(rng.uniform(-35, 15), rng.uniform(-10, 25)), rng.uniform(0.5, 8))
            for _ in range(300)
        ]
        cx = np.array([c.center.x for c in circles])
        cy = np.array([c.center.y for c in circles])
        radius = np.array([c.radius for c in circles])
        index, center_dist, px, py, ox, oy = circle_polyline_contacts(
            cx, cy, radius, trace
        )
        clearance = (center_dist - radius).tolist()
        for k, c in enumerate(circles):
            got = ClearanceResult(
                distance=clearance[k],
                closest_trace_point=P(px[k].item(), py[k].item()),
                closest_object_point=P(ox[k].item(), oy[k].item()),
                segment_index=index[k].item(),
            )
            assert repr(got) == repr(reference.circle_polyline_clearance(c, trace))

    def test_center_on_trace_reports_zero_center_distance(self):
        # The kernel does not raise; it reports a center distance below
        # MIN_ANGLE_RADIUS, which `compute_trajectory` turns into the
        # reference's DegenerateAngle (test_tract_variables pins that).
        trace = polyline([P(-10, 8), P(10, 8)])
        circle = Circle(P(2.5, 8), 1.0)
        with pytest.raises(DegenerateAngle):
            reference.circle_polyline_clearance(circle, trace)
        index, center_dist, px, py, _, _ = circle_polyline_contacts(
            np.array([2.5]), np.array([8.0]), circle.radius, trace
        )
        assert center_dist[0] < MIN_ANGLE_RADIUS
        assert (index[0], px[0], py[0]) == (0, 2.5, 8.0)

    def test_gap_above(self):
        circle = Circle(P(0, 0), 5.0)
        trace = polyline([P(-10, 8), P(10, 8)])
        res = circle_polyline_clearance(circle, trace)
        assert res.distance == 3.0
        assert (res.closest_trace_point.x, res.closest_trace_point.y) == (0.0, 8.0)
        assert (res.closest_object_point.x, res.closest_object_point.y) == (0.0, 5.0)

    def test_penetration_is_negative(self):
        circle = Circle(P(0, 0), 5.0)
        trace = polyline([P(-10, 3), P(10, 3)])
        res = circle_polyline_clearance(circle, trace)
        assert res.distance == -2.0

    def test_boundary_point_on_circle(self):
        rng = np.random.default_rng(31)
        trace = polyline([P(-30, 10), P(-15, 14), P(0, 9), P(10, 12)])
        for _ in range(200):
            c = Circle(P(rng.uniform(-25, 5), rng.uniform(-10, 4)), rng.uniform(1, 6))
            res = circle_polyline_clearance(c, trace)
            assert distance(res.closest_object_point, c.center) == pytest.approx(
                c.radius, rel=1e-12
            )

    def test_sign_matches_penetration_predicate(self):
        rng = np.random.default_rng(32)
        trace = polyline([P(-20, 6), P(-10, 9), P(0, 5), P(10, 8)])
        for _ in range(300):
            c = Circle(P(rng.uniform(-25, 15), rng.uniform(-5, 15)), rng.uniform(0.5, 8))
            res = circle_polyline_clearance(c, trace)
            inner = point_polyline_clearance(c.center, trace)
            assert (res.distance < 0) == (inner.distance < c.radius)
            assert res.distance == pytest.approx(
                inner.distance - c.radius, abs=1e-12
            )

    def test_dense_boundary_oracle(self):
        # Brute force: sample the boundary densely and take the smallest
        # point-to-trace distance; valid as a cross-check while the trace
        # stays outside the circle.
        from helpers import brute_points_to_polyline

        rng = np.random.default_rng(33)
        angles = np.linspace(0, 2 * math.pi, 20000, endpoint=False)
        for _ in range(50):
            trace = polyline(
                [
                    P(rng.uniform(-30, -20), rng.uniform(10, 14)),
                    P(rng.uniform(-18, -8), rng.uniform(9, 15)),
                    P(rng.uniform(-6, 6), rng.uniform(10, 16)),
                ]
            )
            c = Circle(P(rng.uniform(-20, 0), rng.uniform(-6, 2)), rng.uniform(1, 5))
            res = circle_polyline_clearance(c, trace)
            if res.distance < 0:
                continue
            bx = c.center.x + c.radius * np.cos(angles)
            by = c.center.y + c.radius * np.sin(angles)
            oracle = brute_points_to_polyline(bx, by, trace)
            assert res.distance <= oracle + 1e-9
            assert res.distance == pytest.approx(oracle, abs=1e-5)


class TestExtendLineToPolyline:
    def test_vertical_wall_example(self):
        # Ray through (-20, 15) and (-25, 14) reaches x = -74.2 at
        # t = 9.84, hence y = 14 - 9.84 = 4.16.
        wall = polyline([P(-74.2, 40.0), P(-74.2, -40.0)])
        hit = extend_line_to_polyline((-20, 15), (-25, 14), wall)
        assert hit[0] == pytest.approx(-74.2, abs=1e-9)
        assert hit[1] == pytest.approx(4.16, abs=1e-9)

    def test_start_point_on_wall(self):
        wall = polyline([P(-74.2, 40.0), P(-74.2, -40.0)])
        hit = extend_line_to_polyline((-70, 10), (-74.2, 9.0), wall)
        assert hit[0] == pytest.approx(-74.2, abs=1e-12)
        assert hit[1] == pytest.approx(9.0, abs=1e-12)

    def test_parallel_misses(self):
        wall = polyline([P(-74.2, 40.0), P(-74.2, -40.0)])
        with pytest.raises(
            DataError, match=r"^ray from \(-20, 10\) along \(0, -5\) never meets the trace$"
        ):
            extend_line_to_polyline((-20, 15), (-20, 10), wall)

    def test_behind_ray_misses(self):
        wall = polyline([P(-74.2, 40.0), P(-74.2, -40.0)])
        with pytest.raises(
            DataError, match=r"^ray from \(-20, 15\) along \(5, 1\) never meets the trace$"
        ):
            extend_line_to_polyline((-25, 14), (-20, 15), wall)

    def test_coincident_endpoints_rejected(self):
        wall = polyline([P(-74.2, 40.0), P(-74.2, -40.0)])
        with pytest.raises(ValueError):
            extend_line_to_polyline((-20, 15), (-20, 15), wall)

    def test_first_hit_wins(self):
        # Two crossings; the nearer one along the ray must win.
        wall = polyline([P(-40, 20), P(-40, -20), P(-60, -20), P(-60, 20)])
        hit = extend_line_to_polyline((-10, 0), (-20, 0), wall)
        assert hit[0] == pytest.approx(-40.0, abs=1e-12)

    @staticmethod
    def seeded_rays():
        """300 seeded walls, each with a ray (a -> inner) aimed at it."""
        rng = np.random.default_rng(41)
        for _ in range(300):
            ys = np.sort(rng.uniform(-40, 40, 5))[::-1]
            wall = polyline([P(float(-70 + rng.uniform(-2, 2)), float(y)) for y in ys])
            a = P(rng.uniform(-20, -10), rng.uniform(0, 20))
            target_y = rng.uniform(float(ys[-1]) + 1, float(ys[0]) - 1)
            inner = P(rng.uniform(-45, -30), target_y)
            yield a, inner, wall

    def test_residuals_random(self):
        for a, inner, wall in self.seeded_rays():
            try:
                hit = P(*extend_line_to_polyline((a.x, a.y), (inner.x, inner.y), wall))
            except DataError as exc:
                assert str(exc).endswith(" never meets the trace")
                continue
            assert point_polyline_clearance(hit, wall).distance <= 1e-9
            # On the ray: collinear with (a -> inner) and not behind it.
            cross = (inner.x - a.x) * (hit.y - inner.y) - (inner.y - a.y) * (
                hit.x - inner.x
            )
            assert abs(cross) <= 1e-6
            dot = (inner.x - a.x) * (hit.x - inner.x) + (inner.y - a.y) * (
                hit.y - inner.y
            )
            assert dot >= -1e-9

    @staticmethod
    def outcome(cast, a, b, wall):
        """The hit's coordinates as hex strings (so -0.0 differs from 0.0),
        or the class and text of the error."""
        try:
            hit = cast(a, b, wall)
        except (DataError, ValueError) as exc:
            return type(exc), str(exc)
        assert [type(v) for v in hit] == [float, float]
        return tuple(v.hex() for v in hit)

    def test_matches_the_segment_at_a_time_twin(self):
        anat = synthetic_anatomy()
        cases = []
        # Every palate chord, either way, against both walls: the
        # junction ray among them, and many misses.
        pts = anat.palate.xy.tolist()
        for p, q in zip(pts, pts[1:]):
            for wall in (anat.anterior_wall, anat.posterior_wall):
                cases += [(p, q, wall), (q, p, wall)]
        cases += [((a.x, a.y), (b.x, b.y), wall) for a, b, wall in self.seeded_rays()]
        vertical = polyline([P(-74.2, 40.0), P(-74.2, -40.0)])
        corner = polyline([P(-40, 10), P(-40, 0), P(-50, -10)])
        along = polyline([P(-30, 5), P(-30, 0), P(-50, 0), P(-60, 0), P(-60, -5)])
        cases += [
            ((-20, 15), (-20, 10), vertical),  # parallel: misses
            ((-35, 0), (-40, 0), along),  # segments along the ray are skipped
            ((-35, 1), (-40, 1), along),  # and so are those beside it
            ((-70, 10), (-74.2, 9.0), vertical),  # hit at t = 0
            ((-70, 10), (-74.20000000001, 9.0), vertical),  # t just below 0
            ((1.0, 0.0), (-0.0, 0.0), polyline([P(0, 5), P(0, -5)])),
            ((-10, 0), (-20, 0), corner),  # hit exactly on a segment end
            ((-10, 10), (-20, 10), corner),  # hit exactly on the first point
            ((-20, 15), (-20, 15), vertical),  # a == b
            ((1e308, 1e308), (-1e308, -1e308), vertical),  # overflowing direction
        ]
        kinds = set()
        for a, b, wall in cases:
            expected = self.outcome(reference.extend_line, a, b, wall)
            assert self.outcome(extend_line_to_polyline, a, b, wall) == expected
            kinds.add(expected[0] if isinstance(expected[0], type) else "hit")
        assert kinds == {"hit", DataError, ValueError}


class TestAngleFromReference:
    def test_cardinal_directions(self):
        c = P(0, 0)
        assert angle_from_reference(c, P(0, 5)) == 0.0
        assert angle_from_reference(c, P(5, 0)) == pytest.approx(math.pi / 2)
        assert angle_from_reference(c, P(0, -5)) == pytest.approx(math.pi)
        assert angle_from_reference(c, P(-5, 0)) == pytest.approx(-math.pi / 2)

    def test_anterior_positive(self):
        assert angle_from_reference(P(0, 0), P(1, 10)) > 0.0
        assert angle_from_reference(P(0, 0), P(-1, 10)) < 0.0

    def test_range_half_open(self):
        rng = np.random.default_rng(51)
        for _ in range(2000):
            p = P(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(p.x) < 1e-6 and abs(p.y) < 1e-6:
                continue
            ang = angle_from_reference(P(0, 0), p)
            assert -math.pi < ang <= math.pi

    def test_degenerate_point_raises(self):
        with pytest.raises(DegenerateAngle):
            angle_from_reference(P(3, 4), P(3, 4 + 1e-12))

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            px, py = rng.uniform(-10, 10, 2)
            if math.hypot(px, py) < 1e-3:
                continue
            base = angle_from_reference(P(0, 0), P(px, py))
            rot = rng.uniform(-1.5, 1.5)
            ca, sa = math.cos(rot), math.sin(rot)
            # Rotating by `rot` toward +x adds `rot` to the angle (the
            # convention measures from +y toward +x).
            moved = P(ca * px + sa * py, -sa * px + ca * py)
            got = angle_from_reference(P(0, 0), moved)
            want = base + rot
            if want > math.pi:
                want -= 2 * math.pi
            if want <= -math.pi:
                want += 2 * math.pi
            assert got == pytest.approx(want, abs=1e-9)
