"""Planar geometry for midsagittal articulator measurements.

All coordinates live in the midsagittal plane in millimeters, with +x
pointing anterior and +y superior.  Angles follow the articulatory
convention used throughout the package: measured at a reference center,
zero along +y (toward the palate), increasing toward +x (anterior), in
radians on (-pi, pi].

The polyline distance queries are the per-frame hot path, so `Polyline`
precomputes per-segment arrays once and the queries run vectorized over
segments, one point at a time (`nearest`) or over whole blocks of points
(`nearest_many`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CollinearPoints,
    DegenerateAngle,
    DegenerateFit,
    NoIntersection,
)

# Twice-triangle-area threshold (mm^2) below which a point set counts as
# collinear.  Pellet coordinates are on a ~10 mm scale with ~0.01 mm
# precision, so genuine articulations never get this flat.
TOL_COLLINEAR = 1e-6

# Minimum distance (mm) from a reference center at which an angle is
# still considered well defined.
MIN_ANGLE_RADIUS = 1e-9

# Query points per block in `Polyline.nearest_many`.  A block's
# points-by-segments temporaries stay within the CPU cache for traces of
# a few hundred points.
NEAREST_CHUNK = 64


@dataclass(frozen=True, slots=True)
class Point2D:
    """A position in the midsagittal plane, in millimeters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class Circle:
    """A circle given by center and positive radius."""

    center: Point2D
    radius: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")


class Polyline:
    """An ordered open chain of at least two points.

    Consecutive points must be distinct.  Construction precomputes the
    per-segment quantities used by the nearest-point queries; instances
    are immutable and safe to share across worker threads.
    """

    __slots__ = ("_points", "_ax", "_ay", "_dx", "_dy", "_ux", "_uy", "_c0")

    def __init__(self, points: Iterable[Point2D]):
        pts = tuple(points)
        if len(pts) < 2:
            raise ValueError(f"polyline needs at least 2 points, got {len(pts)}")
        for i in range(len(pts) - 1):
            if pts[i].x == pts[i + 1].x and pts[i].y == pts[i + 1].y:
                raise ValueError(f"zero-length segment at index {i}")
        self._points = pts
        xs = np.array([p.x for p in pts], dtype=np.float64)
        ys = np.array([p.y for p in pts], dtype=np.float64)
        ax = xs[:-1]
        ay = ys[:-1]
        dx = np.diff(xs)
        dy = np.diff(ys)
        inv_len2 = 1.0 / (dx * dx + dy * dy)
        self._ax = ax
        self._ay = ay
        self._dx = dx
        self._dy = dy
        # Folded projection coefficients: t = px*ux + py*uy - c0, already
        # divided by the squared segment length.
        self._ux = dx * inv_len2
        self._uy = dy * inv_len2
        self._c0 = (ax * dx + ay * dy) * inv_len2

    @property
    def points(self) -> tuple[Point2D, ...]:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyline):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"Polyline({len(self._points)} points)"

    def nearest(self, px: float, py: float) -> tuple[int, float, float, float]:
        """Nearest point on the chain to (px, py).

        Returns (segment index, squared distance, closest x, closest y).
        Ties resolve to the lowest segment index.
        """
        t = px * self._ux + py * self._uy - self._c0
        np.clip(t, 0.0, 1.0, out=t)
        cx = self._ax + t * self._dx
        cy = self._ay + t * self._dy
        ex = px - cx
        ey = py - cy
        d2 = ex * ex + ey * ey
        i = int(np.argmin(d2))
        return i, float(d2[i]), float(cx[i]), float(cy[i])

    def nearest_many(
        self, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """`nearest` for every point of the arrays (px, py).

        Returns arrays of segment index, squared distance, closest x and
        closest y.  Each element is bit-for-bit what `nearest` returns for
        that point: the arithmetic is the same, only blocked over
        NEAREST_CHUNK points at a time, and `argmin` keeps the
        lowest-index tie.
        """
        n = len(px)
        index = np.empty(n, dtype=np.intp)
        d2 = np.empty(n)
        cx = np.empty(n)
        cy = np.empty(n)
        for start in range(0, n, NEAREST_CHUNK):
            block = slice(start, start + NEAREST_CHUNK)
            qx = px[block, None]
            qy = py[block, None]
            t = qx * self._ux
            t += qy * self._uy
            t -= self._c0
            np.clip(t, 0.0, 1.0, out=t)
            bx = self._ax + t * self._dx
            by = self._ay + t * self._dy
            ex = qx - bx
            ey = qy - by
            ex *= ex
            ey *= ey
            ex += ey
            i = np.argmin(ex, axis=1)
            rows = np.arange(len(i))
            index[block] = i
            d2[block] = ex[rows, i]
            cx[block] = bx[rows, i]
            cy[block] = by[rows, i]
        return index, d2, cx, cy


@dataclass(frozen=True, slots=True)
class ClearanceResult:
    """Outcome of a minimum-distance query against a trace.

    `distance` is signed for circle queries (negative means the trace
    penetrates the circle) and non-negative for point queries.  The two
    closest points identify where the minimum is attained: one on the
    trace, one on the query object.
    """

    distance: float
    closest_trace_point: Point2D
    closest_object_point: Point2D
    segment_index: int


def distance(p: Point2D, q: Point2D) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def point_segment_distance(
    p: Point2D, a: Point2D, b: Point2D
) -> tuple[float, Point2D]:
    """Distance from `p` to segment `ab`, with the attaining point.

    Raises ValueError when the segment has zero length.
    """
    dx = b.x - a.x
    dy = b.y - a.y
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        raise ValueError("zero-length segment")
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    cx = a.x + t * dx
    cy = a.y + t * dy
    return math.hypot(p.x - cx, p.y - cy), Point2D(cx, cy)


def point_polyline_clearance(p: Point2D, trace: Polyline) -> ClearanceResult:
    """Minimum distance from a point to a trace.

    The result's `closest_object_point` is `p` itself; `distance` is
    always >= 0.  Ties between segments resolve to the lowest index.
    """
    i, d2, cx, cy = trace.nearest(p.x, p.y)
    return ClearanceResult(
        distance=math.sqrt(d2),
        closest_trace_point=Point2D(cx, cy),
        closest_object_point=p,
        segment_index=i,
    )


def circle_polyline_clearance(circle: Circle, trace: Polyline) -> ClearanceResult:
    """Signed clearance between a circle and a trace.

    Positive clearance is the gap between the circle boundary and the
    trace; negative means the trace comes closer to the center than the
    radius (penetration).  The attaining circle point lies on the ray
    from the center through the closest trace point.
    """
    c = circle.center
    i, d2, cx, cy = trace.nearest(c.x, c.y)
    center_dist = math.sqrt(d2)
    if center_dist < MIN_ANGLE_RADIUS:
        raise DegenerateAngle(
            "trace passes through the circle center; boundary point undefined"
        )
    scale = circle.radius / center_dist
    on_circle = Point2D(c.x + (cx - c.x) * scale, c.y + (cy - c.y) * scale)
    return ClearanceResult(
        distance=center_dist - circle.radius,
        closest_trace_point=Point2D(cx, cy),
        closest_object_point=on_circle,
        segment_index=i,
    )


def circumcircle(a: Point2D, b: Point2D, c: Point2D) -> Circle:
    """The unique circle through three non-collinear points.

    Raises CollinearPoints when twice the triangle area falls below
    TOL_COLLINEAR.
    """
    abx = b.x - a.x
    aby = b.y - a.y
    acx = c.x - a.x
    acy = c.y - a.y
    cross2 = abx * acy - aby * acx
    if abs(cross2) < TOL_COLLINEAR:
        raise CollinearPoints(
            f"points are collinear within tolerance (twice area = {abs(cross2):.3e})"
        )
    ab2 = abx * abx + aby * aby
    ac2 = acx * acx + acy * acy
    inv = 0.5 / cross2
    ux = (acy * ab2 - aby * ac2) * inv
    uy = (abx * ac2 - acx * ab2) * inv
    center = Point2D(a.x + ux, a.y + uy)
    return Circle(center, math.hypot(ux, uy))


def _spread_twice_area(xs: np.ndarray, ys: np.ndarray) -> float:
    """Collinearity measure for a point set.

    Twice the area of the extent-by-deviation box: the spread along the
    principal direction times the largest perpendicular deviation.  Zero
    for exactly collinear sets; comparable to the twice-triangle-area
    test for triples.
    """
    u = xs - xs.mean()
    v = ys - ys.mean()
    scatter = np.array(
        [[np.dot(u, u), np.dot(u, v)], [np.dot(u, v), np.dot(v, v)]]
    )
    _, vecs = np.linalg.eigh(scatter)
    main = vecs[:, 1]
    perp = vecs[:, 0]
    along = u * main[0] + v * main[1]
    dev = u * perp[0] + v * perp[1]
    extent = float(along.max() - along.min())
    return extent * float(np.abs(dev).max())


def fit_circle(points: Sequence[Point2D]) -> Circle:
    """Algebraic least-squares circle through three or more points.

    Minimizes sum_i (|p_i - c|^2 - r^2)^2, which is linear in the center
    after reducing coordinates about the centroid; the radius then
    satisfies r^2 = mean |p_i - c|^2.  Exact on noiseless circles.

    Raises CollinearPoints when the point spread is flat within
    TOL_COLLINEAR, and DegenerateFit when the normal equations are
    singular anyway.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points to fit a circle, got {len(pts)}")
    xs = np.array([p.x for p in pts], dtype=np.float64)
    ys = np.array([p.y for p in pts], dtype=np.float64)
    if _spread_twice_area(xs, ys) < TOL_COLLINEAR:
        raise CollinearPoints("cannot fit a circle through collinear points")
    xm = xs.mean()
    ym = ys.mean()
    u = xs - xm
    v = ys - ym
    suu = np.dot(u, u)
    svv = np.dot(v, v)
    suv = np.dot(u, v)
    suuu = np.dot(u * u, u)
    svvv = np.dot(v * v, v)
    suuv = np.dot(u * u, v)
    suvv = np.dot(u, v * v)
    lhs = np.array([[suu, suv], [suv, svv]])
    rhs = np.array([(suuu + suvv) / 2.0, (svvv + suuv) / 2.0])
    try:
        uc, vc = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFit(f"singular circle-fit system: {exc}") from exc
    cx = float(xm + uc)
    cy = float(ym + vc)
    r2 = float(np.mean((xs - cx) ** 2 + (ys - cy) ** 2))
    if r2 <= 0.0 or not math.isfinite(r2):
        raise DegenerateFit(f"fit produced a non-positive squared radius {r2}")
    return Circle(Point2D(cx, cy), math.sqrt(r2))


def extend_line_to_polyline(
    a: Point2D, b: Point2D, wall: Polyline
) -> tuple[Point2D, int]:
    """First intersection of the ray from `b` away from `a` with a trace.

    The ray starts at `b` in direction (b - a); parameter zero (b already
    on the wall) counts as a hit.  Among all crossed segments the one
    with the smallest ray parameter wins, ties resolving to the lowest
    segment index.  Segments parallel to the ray are skipped.

    Returns the intersection point and the wall segment index.  Raises
    NoIntersection when the ray misses, ValueError when a == b.
    """
    dx = b.x - a.x
    dy = b.y - a.y
    dlen = math.hypot(dx, dy)
    if dlen == 0.0:
        raise ValueError("ray direction undefined: a and b coincide")
    best_t = math.inf
    best_idx = -1
    pts = wall.points
    for i in range(len(pts) - 1):
        w1 = pts[i]
        w2 = pts[i + 1]
        sx = w2.x - w1.x
        sy = w2.y - w1.y
        denom = dx * sy - dy * sx
        if abs(denom) <= 1e-12 * dlen * math.hypot(sx, sy):
            continue
        rx = w1.x - b.x
        ry = w1.y - b.y
        t = (rx * sy - ry * sx) / denom
        u = (rx * dy - ry * dx) / denom
        if t < -1e-9 or u < -1e-9 or u > 1.0 + 1e-9:
            continue
        if t < best_t:
            best_t = t
            best_idx = i
    if best_idx < 0:
        raise NoIntersection(
            f"ray from ({b.x:.3f}, {b.y:.3f}) along ({dx:.3f}, {dy:.3f}) "
            f"never meets the trace"
        )
    t = max(best_t, 0.0)
    return Point2D(b.x + t * dx, b.y + t * dy), best_idx


def angle_from_reference(center: Point2D, p: Point2D) -> float:
    """Angle of `p` about `center`, zero along +y, positive toward +x.

    Returned in radians on (-pi, pi].  Raises DegenerateAngle when `p`
    sits on the center within 1e-9 mm.
    """
    dx = p.x - center.x
    dy = p.y - center.y
    if math.hypot(dx, dy) < MIN_ANGLE_RADIUS:
        raise DegenerateAngle(
            f"point ({p.x}, {p.y}) coincides with the reference center"
        )
    ang = math.atan2(dx, dy)
    if ang <= -math.pi:
        return math.pi
    return ang
